package main

import (
	"fmt"
	"runtime"
	"time"
)

// runPlain is the untraced run: setupReps set-ups (setup_s is their
// median), then the warm-up and the measured window on the last one. It
// reports every end-to-end metric.
func runPlain(cfg config) (*report, error) {
	var setups []float64
	var b *bench
	var heapBase uint64
	for rep := 0; rep < cfg.setupReps; rep++ {
		if b != nil {
			b.close()
		}
		data := newDataset(cfg)
		heapBase = liveHeap()
		nb, took, err := setUp(cfg, data, rep, false)
		if err != nil {
			return nil, err
		}
		b = nb
		setups = append(setups, took.Seconds())
	}
	defer b.close()
	win, err := b.measure()
	if err != nil {
		return nil, err
	}
	rowCount, _ := b.data.totals()
	stored, err := b.storedBytes()
	if err != nil {
		return nil, err
	}
	// The latencies go before the heap is read, so that only the
	// deployment's growth since heapBase counts.
	p50 := ms(quantile(win.lat, 0.50))
	win.lat = nil
	heap := liveHeap()

	rep := &report{Correct: win.failed == 0, Attempted: win.ops, Failed: win.failed}
	d := win.after
	s := win.before
	rep.set("setup_s", median(setups), "s")
	rep.set("op_p50_ms", p50, "ms")
	rep.set("allocs_per_op", perOp(d.allocs-s.allocs, win.ops), "count")
	rep.set("wire_bytes_per_op", perOp(d.wire-s.wire, win.ops), "bytes")
	rep.set("stored_bytes_per_row", float64(stored)/float64(rowCount), "bytes")
	rep.set("heap_bytes_per_row", (float64(heap)-float64(heapBase))/float64(rowCount), "bytes")
	return rep, nil
}

// runTraced measures an untraced window and then, on a fresh deployment of
// the same seed, a traced one; it reports the per-layer metrics from the
// traced window and the tracing overhead on op_p50_ms.
func runTraced(cfg config) (*report, error) {
	plain, err := tracedOrPlain(cfg, 0, false)
	if err != nil {
		return nil, err
	}
	traced, err := tracedOrPlain(cfg, 1, true)
	if err != nil {
		return nil, err
	}
	rep := traced.rep
	rep.Attempted += plain.win.ops
	rep.Failed += plain.win.failed
	rep.Correct = rep.Failed == 0
	rep.set("trace.overhead_op_p50_ms",
		ms(quantile(traced.win.lat, 0.5))-ms(quantile(plain.win.lat, 0.5)), "ms")
	// These are reported here, from the untraced window, rather than as
	// end-to-end metrics: on a shared host they do not repeat within a
	// bound that would catch a regression (see README.md).
	w := plain.win
	s, d := w.before, w.after
	rep.set("op_p99_ms", ms(quantile(w.lat, 0.99)), "ms")
	rep.set("ops_per_s", w.rate, "1/s")
	rep.set("cpu_us_per_op", float64(d.cpu-s.cpu)/1e3/float64(w.ops), "us")
	// The GC figures come from the untraced window too: the traced one
	// also collects the tracer's spans.
	rep.set("runtime.gc_cpu_share", (d.gcCPU-s.gcCPU)/max((d.cpu-s.cpu).Seconds(), 1e-9), "ratio")
	rep.set("runtime.gc_cycles_per_kop", float64(d.gcCycles-s.gcCycles)/(float64(w.ops)/1000), "1/kop")
	return rep, nil
}

type windowReport struct {
	win *window
	rep *report
}

// tracedOrPlain sets up once, measures one window and, when traced,
// derives the per-layer report from it.
func tracedOrPlain(cfg config, rep int, traced bool) (*windowReport, error) {
	data := newDataset(cfg)
	runtime.GC()
	b, _, err := setUp(cfg, data, rep, traced)
	if err != nil {
		return nil, err
	}
	defer b.close()
	win, err := b.measure()
	if err != nil {
		return nil, err
	}
	out := &windowReport{win: win, rep: &report{Correct: win.failed == 0, Attempted: win.ops, Failed: win.failed}}
	if traced {
		if err := b.layerMetrics(out.rep, win); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// layerMetrics fills rep with the per-layer metrics of a traced window.
func (b *bench) layerMetrics(rep *report, win *window) error {
	t := b.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	n := win.ops
	s, d := win.before, win.after
	kops := float64(n) / 1000

	// client
	rep.set("client.self_us_per_op", selfNs(t.ops, t.calls)/1e3, "us")
	rep.set("client.first_row_us", median(t.firstRow), "us")
	rep.set("client.hedges_per_kop", float64(d.hedges-s.hedges)/kops, "1/kop")
	rep.set("client.tx_commit_us", median(t.commit), "us")
	rep.set("client.tx_abort_ratio", float64(t.aborts)/float64(max(t.commits, 1)), "ratio")
	rep.set("client.failed_op_ratio", float64(t.failed)/float64(n), "ratio")

	// sql, opp, secretshare: the benchmark's own calls on sampled inputs.
	parseUs, oppNs, splitNs, combineNs, err := t.codecTimings()
	if err != nil {
		return fmt.Errorf("codec timings: %w", err)
	}
	rep.set("sql.parse_us", parseUs, "us")
	rep.set("opp.split_ns_per_value", oppNs, "ns")
	rep.set("secretshare.split_ns_per_value", splitNs, "ns")
	rep.set("secretshare.combine_ns_per_value", combineNs, "ns")

	// transport
	var netNs, chunks int64
	durs := make([]float64, 0, len(t.calls))
	for _, c := range t.calls {
		netNs += c.end - c.start - c.yield
		chunks += c.chunks
		durs = append(durs, float64(c.end-c.start)/1e3)
	}
	var handleNs int64
	for _, k := range kindOrder {
		ks := t.kinds[k]
		handleNs += ks.ns
		rep.set("server.handle_us_per_op."+k, float64(ks.ns)/1e3/float64(n), "us")
		rep.set("server.requests_per_op."+k, float64(ks.n)/float64(n), "count")
	}
	calls := len(t.calls)
	rep.set("transport.calls_per_op", float64(calls)/float64(n), "count")
	rep.set("transport.call_us_p50", median(durs), "us")
	rep.set("transport.chunks_per_op", float64(chunks)/float64(n), "count")
	rep.set("transport.overhead_us_per_call", float64(netNs-handleNs)/1e3/float64(max(calls, 1)), "us")
	var admitP50, admitP99 time.Duration
	for _, srv := range b.servers {
		st := srv.SchedStats()
		admitP50 += st.AdmitWaitP50
		admitP99 += st.AdmitWaitP99
	}
	if k := len(b.servers); k > 0 {
		admitP50 /= time.Duration(k)
		admitP99 /= time.Duration(k)
	}
	rep.set("transport.admit_wait_p50_us", float64(admitP50)/1e3, "us")
	rep.set("transport.admit_wait_p99_us", float64(admitP99)/1e3, "us")
	rep.set("transport.shed_per_kop", float64(d.shed-s.shed)/kops, "1/kop")

	// store, summed over the providers.
	hits, misses := d.store.CacheHits-s.store.CacheHits, d.store.CacheMisses-s.store.CacheMisses
	rep.set("store.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	rep.set("store.cache_misses_per_op", perOp(misses, n), "count")
	rep.set("store.evictions_per_op", perOp(d.store.Evictions-s.store.Evictions, n), "count")
	rep.set("store.writebacks_per_op", perOp(d.store.Writebacks-s.store.Writebacks, n), "count")
	rep.set("store.resident_bytes", float64(d.store.ResidentBytes), "bytes")
	// The durable write path runs in set-up only (see README.md): the bulk
	// load's WAL fsyncs and the checkpoint after it.
	krows := float64(b.cfg.rows) / 1000
	rep.set("store.load_fsyncs_per_krow", float64(b.loadWAL.WALFsyncs)/krows, "count")
	rep.set("store.load_fsync_us_per_krow", float64(b.loadWAL.WALFsyncNanos)/1e3/krows, "us")
	rep.set("store.checkpoint_ms", median(b.loadCkpt), "ms")
	return nil
}
