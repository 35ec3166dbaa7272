package main

import (
	"encoding/json"
	"os"
	"testing"
)

// tinyConfig shrinks a workload to a few thousand rows and a few hundred
// ops. Hedging is off: a hedge fires on a timer, so with it on two runs of
// the same ops may differ by a hedged call.
func tinyConfig(t *testing.T, name string) config {
	cfg := defaultConfig(workloads[name], 3, 1)
	cfg.rows = 3000
	cfg.ops = 300
	cfg.warmup = 30
	cfg.setupReps = 1
	cfg.hedgeDelay = -1
	cfg.dataDir = t.TempDir()
	return cfg
}

// benchmarkFile is the repository's BENCHMARK.json, which names every
// metric the benchmark must emit.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestTraceFidelity runs each workload untraced and traced on the same
// seed: the wrappers must leave the client's path unchanged, so calls and
// wire bytes per op must be identical.
func TestTraceFidelity(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name)
			plain, err := tracedOrPlain(cfg, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := tracedOrPlain(cfg, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []*windowReport{plain, traced} {
				if w.win.failed != 0 {
					t.Fatalf("%d ops failed: %v", w.win.failed, w.win.firstErr)
				}
			}
			perOpDelta := func(w *window, f func(snapshot) uint64) float64 {
				return perOp(f(w.after)-f(w.before), w.ops)
			}
			calls := func(s snapshot) uint64 { return s.calls }
			wire := func(s snapshot) uint64 { return s.wire }
			pc, tc := perOpDelta(plain.win, calls), perOpDelta(traced.win, calls)
			if pc != tc {
				t.Errorf("calls per op: untraced %v, traced %v", pc, tc)
			}
			if got := traced.rep.Metrics["transport.calls_per_op"].Value; got != tc {
				t.Errorf("transport.calls_per_op = %v, but the connections counted %v", got, tc)
			}
			if pw, tw := perOpDelta(plain.win, wire), perOpDelta(traced.win, wire); pw != tw {
				t.Errorf("wire bytes per op: untraced %v, traced %v", pw, tw)
			}
		})
	}
}

// TestMetricsEmitted checks that both kinds of run emit every metric
// BENCHMARK.json names, with its unit, and nothing else.
func TestMetricsEmitted(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name)
			plain, err := runPlain(cfg)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(rep *report, want []struct{ Name, Unit string }) {
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("report: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
			}
			check(plain, bf.EndToEnd)
			check(traced, bf.PerLayer)
		})
	}
}
