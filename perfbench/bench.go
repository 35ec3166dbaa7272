package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"sssdb/internal/client"
	"sssdb/internal/server"
	"sssdb/internal/store"
	"sssdb/internal/transport"
)

const providers = 3

// masterKey is the data source's key; any fixed key gives the same costs.
var masterKey = []byte("perfbench master key")

// bench is one deployment: three providers, a connected client, the oracle
// and, in a traced run, the tracer whose wrappers sit around every Conn and
// Handler.
type bench struct {
	cfg     config
	data    *dataset
	tr      *tracer
	dir     string
	stores  []*store.Store
	servers []*transport.Server
	conns   []transport.Conn // the client's connections, before any wrapper
	client  *client.Client

	// loadWAL is the providers' summed WAL counters over the bulk load, and
	// loadCkpt each provider's post-load Store.Checkpoint time.
	loadWAL  store.Stats
	loadCkpt []float64 // ms
}

// setUp builds the deployment and bulk-loads the dataset; the time it takes
// is one setup_s sample. Durable providers checkpoint after the load, so
// the window starts from a clean WAL.
func setUp(cfg config, data *dataset, rep int, traced bool) (*bench, time.Duration, error) {
	b := &bench{cfg: cfg, data: data, dir: filepath.Join(cfg.dataDir, fmt.Sprintf("run%d", rep))}
	if traced {
		b.tr = newTracer(cfg.workers)
	}
	start := time.Now()
	if err := b.open(); err != nil {
		b.close()
		return nil, 0, err
	}
	before := b.walStats()
	if err := b.load(); err != nil {
		b.close()
		return nil, 0, err
	}
	ckpt, err := b.checkpoint()
	if err != nil {
		b.close()
		return nil, 0, err
	}
	took := time.Since(start)
	after := b.walStats()
	b.loadWAL = store.Stats{
		WALFsyncs:     after.WALFsyncs - before.WALFsyncs,
		WALFsyncNanos: after.WALFsyncNanos - before.WALFsyncNanos,
	}
	b.loadCkpt = ckpt
	return b, took, nil
}

// walStats sums the providers' WAL fsync counters.
func (b *bench) walStats() store.Stats {
	var s store.Stats
	for _, st := range b.stores {
		x := st.Stats()
		s.WALFsyncs += x.WALFsyncs
		s.WALFsyncNanos += x.WALFsyncNanos
	}
	return s
}

func (b *bench) open() error {
	wl := b.cfg.wl
	conns := make([]transport.Conn, 0, providers)
	for i := 0; i < providers; i++ {
		dir := ""
		opts := store.Options{CheckpointInterval: -1}
		if wl.durable {
			dir = filepath.Join(b.dir, fmt.Sprintf("p%d", i))
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			opts.CacheBytes = wl.cacheBytes
		}
		st, err := store.OpenOptions(dir, opts)
		if err != nil {
			return fmt.Errorf("open provider %d: %w", i, err)
		}
		b.stores = append(b.stores, st)
		var h transport.Handler = server.New(st)
		if b.tr != nil {
			h = b.tr.handler(h)
		}
		var conn transport.Conn
		if wl.tcp {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			srv := transport.NewServer(ln, h)
			b.servers = append(b.servers, srv)
			if conn, err = transport.DialWith(srv.Addr().String(), transport.DialConfig{}); err != nil {
				return err
			}
		} else {
			conn = transport.NewLocal(h)
		}
		b.conns = append(b.conns, conn)
		if b.tr != nil {
			conn = b.tr.conn(conn)
		}
		conns = append(conns, conn)
	}
	c, err := client.New(conns, client.Options{K: 2, MasterKey: masterKey, HedgeDelay: b.cfg.hedgeDelay})
	if err != nil {
		return err
	}
	b.client = c
	_, err = c.Exec("CREATE TABLE acct (id INT, name VARCHAR(8), bal INT)")
	return err
}

// close stops the client, the servers and the stores, and removes the
// providers' directories.
func (b *bench) close() {
	if b.client != nil {
		b.client.Close()
	} else {
		for _, c := range b.conns {
			c.Close()
		}
	}
	for _, s := range b.servers {
		s.Close()
	}
	for _, st := range b.stores {
		st.Close()
	}
	os.RemoveAll(b.dir)
}

// checkpoint runs Store.Checkpoint on every durable provider and returns
// how long each took, in ms. Stores run with no background checkpoints,
// so these are the only ones.
func (b *bench) checkpoint() ([]float64, error) {
	if !b.cfg.wl.durable {
		return nil, nil
	}
	var took []float64
	for i, st := range b.stores {
		start := time.Now()
		if err := st.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint provider %d: %w", i, err)
		}
		took = append(took, ms(time.Since(start)))
	}
	return took, nil
}

// op is one operation's record.
type op struct {
	tr         *tracer
	start, fin time.Time
	texts      []string
	// vals are INT values the op wrote or read; a traced run times the
	// benchmark's own share encoding and reconstruction on a sample of them.
	written, readVals []int64
	firstRowAt        time.Time
	commitDur         time.Duration
	aborted           bool
}

// begin starts the op's timed part; texts are the SQL statements it runs.
func (o *op) begin(texts ...string) {
	if o.tr != nil {
		o.texts = append(o.texts, texts...)
	}
	o.start = time.Now()
}

func (o *op) end() { o.fin = time.Now() }

func (o *op) firstRow() {
	if o.tr != nil {
		o.firstRowAt = time.Now()
	}
}

func (o *op) wrote(vals ...int64) {
	if o.tr != nil {
		o.written = append(o.written, vals...)
	}
}

func (o *op) read(vals ...int64) {
	if o.tr != nil && len(o.readVals) < valueSamplesPerOp {
		o.readVals = append(o.readVals, vals...)
	}
}

func (o *op) commit(tx *client.Tx) error {
	start := time.Now()
	err := tx.Commit()
	o.commitDur = time.Since(start)
	o.aborted = errors.Is(err, client.ErrTxAborted)
	return err
}

// window is what one run of ops measured.
type window struct {
	ops    int
	failed int
	lat    []time.Duration // successful ops only
	// rate sums each worker's ops over its own elapsed time, so the tail
	// where one worker has finished and the other runs alone does not
	// count.
	rate     float64
	firstErr error
	before   snapshot
	after    snapshot
}

// run executes n ops split over the workers (closed loop: each worker
// issues its next op when the previous one returns). When the bench is
// traced, every op is recorded for per-layer attribution.
func (b *bench) run(workers []opFunc, n int) *window {
	res := &window{ops: n}
	per := make([][]time.Duration, len(workers))
	elapsed := make([]time.Duration, len(workers))
	fails := make([]int, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	res.before = b.snapshot()
	start := time.Now()
	for w := range workers {
		count := n / len(workers)
		if w < n%len(workers) {
			count++
		}
		per[w] = make([]time.Duration, 0, count)
		wg.Add(1)
		go func(w, count int) {
			defer wg.Done()
			if b.tr != nil {
				b.tr.register(w)
			}
			var o op
			for i := 0; i < count; i++ {
				o = op{tr: b.tr}
				if b.tr != nil {
					b.tr.opStart(w)
				}
				err := workers[w](&o)
				if b.tr != nil {
					b.tr.opDone(w, &o, err != nil)
				}
				if err != nil {
					fails[w]++
					if errs[w] == nil {
						errs[w] = err
					}
					continue
				}
				per[w] = append(per[w], o.fin.Sub(o.start))
			}
			elapsed[w] = time.Since(start)
		}(w, count)
	}
	wg.Wait()
	res.after = b.snapshot()
	for w := range workers {
		res.rate += float64(len(per[w])+fails[w]) / elapsed[w].Seconds()
		res.lat = append(res.lat, per[w]...)
		res.failed += fails[w]
		if res.firstErr == nil {
			res.firstErr = errs[w]
		}
	}
	return res
}

// snapshot is the process and fleet counters read around a window.
type snapshot struct {
	cpu      time.Duration
	allocs   uint64
	gcCPU    float64
	gcCycles uint64
	wire     uint64
	calls    uint64
	hedges   uint64
	shed     uint64
	store    store.Stats
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func (b *bench) snapshot() snapshot {
	var s snapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	s.allocs = ms[0].Value.Uint64()
	s.gcCPU = ms[1].Value.Float64()
	s.gcCycles = ms[2].Value.Uint64()
	for _, c := range b.conns {
		st := c.Stats()
		s.wire += st.BytesSent + st.BytesReceived
		s.calls += st.Calls
	}
	s.hedges = b.client.HedgeStats().Issued
	for _, srv := range b.servers {
		s.shed += srv.SchedStats().Shed
	}
	for _, st := range b.stores {
		x := st.Stats()
		s.store.CacheHits += x.CacheHits
		s.store.CacheMisses += x.CacheMisses
		s.store.Evictions += x.Evictions
		s.store.Writebacks += x.Writebacks
		s.store.ResidentBytes += x.ResidentBytes
	}
	return s
}

// workersFor builds the workload's op sources on this deployment.
func (b *bench) workersFor() []opFunc {
	ws := make([]opFunc, b.cfg.workers)
	for w := range ws {
		ws[w] = b.cfg.wl.newWorker(b, w)
	}
	return ws
}

// measure runs the warm-up ops, collects garbage, runs the measured window
// and checks the end state: the oracle's totals and an idle repair loop.
func (b *bench) measure() (*window, error) {
	ws := b.workersFor()
	warm := b.run(ws, b.cfg.warmup)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %w", warm.failed, warm.ops, warm.firstErr)
	}
	runtime.GC()
	if b.tr != nil {
		b.tr.start()
	}
	win := b.run(ws, b.cfg.ops)
	if b.tr != nil {
		b.tr.stop()
	}
	sort.Slice(win.lat, func(i, j int) bool { return win.lat[i] < win.lat[j] })
	if win.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed op:", win.firstErr)
	}
	if err := b.verifyTotals(); err != nil {
		return nil, err
	}
	if n := b.client.PendingHints(); n != 0 {
		return nil, fmt.Errorf("repair loop not idle: %d pending hints", n)
	}
	return win, nil
}

// storedBytes sums the encoded page bytes across providers: the resident
// pages of memory-only stores, the page files of durable ones after a
// checkpoint.
func (b *bench) storedBytes() (uint64, error) {
	if !b.cfg.wl.durable {
		var n uint64
		for _, st := range b.stores {
			n += st.Stats().ResidentBytes
		}
		return n, nil
	}
	if _, err := b.checkpoint(); err != nil {
		return 0, err
	}
	var n uint64
	err := filepath.WalkDir(b.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".pg") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += uint64(info.Size())
		return nil
	})
	return n, err
}

// liveHeap is the heap left after full collections; the second one also
// empties the sync.Pool victim caches the first one left.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quantile returns the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// perOp divides a counter delta by the op count.
func perOp(delta uint64, ops int) float64 { return float64(delta) / float64(max(ops, 1)) }

// fsType names the filesystem holding dir, for the run's header.
func fsType(dir string) string {
	var st syscall.Statfs_t
	for d := dir; ; d = filepath.Dir(d) {
		if err := syscall.Statfs(d, &st); err == nil {
			break
		}
		if d == filepath.Dir(d) {
			return "unknown"
		}
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}
