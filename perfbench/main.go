// Command perfbench is sssdb's end-to-end benchmark. It drives one seeded
// workload through the client, transport, server and store packages and
// prints every metric by name and unit as one JSON object on the last line
// of standard output. With -trace 1 it reports per-layer metrics from a
// separately traced run instead. README.md describes the workloads, the
// metrics and why the benchmark is built the way it is.
//
//	bash perfbench/run.sh --workload point-tcp --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run()) }

// run parses the flags, runs one workload and returns the exit status.
func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "nominal length of the measured window; it fixes the op count")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	dataDir := flag.String("data-dir", "", "parent of the durable providers' directories")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *dataDir == "" || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1 and -data-dir\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := defaultConfig(wl, *seed, *seconds)
	cfg.dataDir = *dataDir
	fmt.Printf("perfbench: workload=%s seed=%d ops=%d warmup=%d rows=%d workers=%d trace=%d\n",
		wl.name, *seed, cfg.ops, cfg.warmup, cfg.rows, cfg.workers, *trace)
	fmt.Printf("perfbench: flush=wal-fsync-per-commit nproc=%d GOMAXPROCS=%d go=%s datafs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(cfg.dataDir))

	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(cfg)
	} else {
		rep, err = runPlain(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one named measurement in the report.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
