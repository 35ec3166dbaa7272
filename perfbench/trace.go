package main

import (
	"bytes"
	"crypto/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sssdb/internal/field"
	"sssdb/internal/opp"
	"sssdb/internal/proto"
	"sssdb/internal/secretshare"
	"sssdb/internal/sql"
	"sssdb/internal/transport"
)

// The tracer records spans at two layer boundaries from the outside: a
// wrapper around each provider's transport.Conn (client→transport) and one
// around each transport.Handler (transport→server). Spans stay in memory
// until the run ends. Each call span is attributed to the op whose worker
// goroutine made the call, or created the goroutine that did.

const (
	// opSamples caps how many ops' SQL texts and values a traced window
	// keeps for the benchmark's own parse and share-coding timings.
	opSamples = 20_000
	// valueSamplesPerOp caps the INT values sampled from one op's result.
	valueSamplesPerOp = 16
)

// Request kinds the server metrics are split by; everything else is
// "other".
var kindNames = map[proto.Kind]string{
	proto.KScan:      "scan",
	proto.KAggregate: "aggregate",
	proto.KInsert:    "insert",
	proto.KUpdate:    "update",
	proto.KTxPrepare: "tx_prepare",
	proto.KTxCommit:  "tx_commit",
}

var kindOrder = []string{"scan", "aggregate", "insert", "update", "tx_prepare", "tx_commit", "other"}

type callSpan struct {
	op         int64 // -1 when no op's goroutine made the call
	start, end int64 // ns since the tracer's base
	// from and to widen [start, end] by the tracer's own work around the
	// call: finding the op and recording the span. It is not client time.
	from, to int64
	yield    int64 // ns spent in the caller's chunk callback
	chunks   int64
}

type opSpan struct {
	id         int64
	start, end int64
}

type kindStat struct {
	n, ns int64
}

type workerSlot struct {
	gid atomic.Int64
	op  atomic.Int64
}

type tracer struct {
	base   time.Time
	nextOp atomic.Int64
	slots  []workerSlot
	stacks sync.Pool
	// on is set while the measured window runs; spans outside it are
	// dropped.
	on atomic.Bool

	mu       sync.Mutex
	calls    []callSpan
	ops      []opSpan
	kinds    map[string]*kindStat
	texts    [][]string
	written  []int64
	readVals []int64
	firstRow []float64 // µs
	commit   []float64 // µs
	commits  int
	aborts   int
	failed   int
}

func newTracer(workers int) *tracer {
	t := &tracer{base: time.Now(), slots: make([]workerSlot, workers)}
	t.stacks.New = func() any { return new([4096]byte) }
	for i := range t.slots {
		t.slots[i].gid.Store(-1)
		t.slots[i].op.Store(-1)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// start discards everything recorded so far and records until stop.
func (t *tracer) start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on.Store(true)
	t.calls, t.ops, t.texts = nil, nil, nil
	t.written, t.readVals, t.firstRow, t.commit = nil, nil, nil, nil
	t.commits, t.aborts, t.failed = 0, 0, 0
	t.kinds = make(map[string]*kindStat, len(kindOrder))
	for _, k := range kindOrder {
		t.kinds[k] = &kindStat{}
	}
}

func (t *tracer) stop() { t.on.Store(false) }

// register binds worker w to the calling goroutine.
func (t *tracer) register(w int) {
	self, _ := t.goroutines()
	t.slots[w].gid.Store(self)
}

func (t *tracer) opStart(w int) { t.slots[w].op.Store(t.nextOp.Add(1)) }

func (t *tracer) opDone(w int, o *op, failed bool) {
	id := t.slots[w].op.Swap(-1)
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if failed {
		t.failed++
	}
	if !o.start.IsZero() && !o.fin.IsZero() {
		t.ops = append(t.ops, opSpan{id: id, start: int64(o.start.Sub(t.base)), end: int64(o.fin.Sub(t.base))})
	}
	if !o.firstRowAt.IsZero() {
		t.firstRow = append(t.firstRow, float64(o.firstRowAt.Sub(o.start))/1e3)
	}
	if o.commitDur > 0 {
		t.commits++
		t.commit = append(t.commit, float64(o.commitDur)/1e3)
		if o.aborted {
			t.aborts++
		}
	}
	if len(t.texts) < opSamples {
		t.texts = append(t.texts, o.texts)
		t.written = append(t.written, o.written...)
		t.readVals = append(t.readVals, o.readVals...)
	}
}

// goroutines returns the calling goroutine's id and the id of the
// goroutine that created it, parsed from its stack header and footer.
func (t *tracer) goroutines() (self, parent int64) {
	buf := t.stacks.Get().(*[4096]byte)
	defer t.stacks.Put(buf)
	st := buf[:runtime.Stack(buf[:], false)]
	self = leadingInt(bytes.TrimPrefix(st, []byte("goroutine ")))
	parent = -1
	if i := bytes.LastIndex(st, []byte(" in goroutine ")); i >= 0 {
		parent = leadingInt(st[i+len(" in goroutine "):])
	}
	return self, parent
}

func leadingInt(b []byte) int64 {
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	v, err := strconv.ParseInt(string(b[:n]), 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// currentOp is the op on whose behalf the calling goroutine runs.
func (t *tracer) currentOp() int64 {
	self, parent := t.goroutines()
	for i := range t.slots {
		if g := t.slots[i].gid.Load(); g == self || g == parent {
			return t.slots[i].op.Load()
		}
	}
	return -1
}

// addCall records s, with s.to set once the record is made.
func (t *tracer) addCall(s callSpan) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.calls = append(t.calls, s)
	t.calls[len(t.calls)-1].to = t.now()
	t.mu.Unlock()
}

func (t *tracer) addHandle(k proto.Kind, ns int64) {
	if !t.on.Load() {
		return
	}
	name, ok := kindNames[k]
	if !ok {
		name = "other"
	}
	t.mu.Lock()
	ks := t.kinds[name]
	ks.n++
	ks.ns += ns
	t.mu.Unlock()
}

// conn wraps c. It implements every optional Conn interface and forwards
// through the transport helpers, which probe c exactly as they would probe
// it unwrapped, so the client takes the same paths as without the tracer.
func (t *tracer) conn(c transport.Conn) transport.Conn { return &tracedConn{inner: c, t: t} }

type tracedConn struct {
	inner transport.Conn
	t     *tracer
}

var (
	_ transport.StreamCaller         = (*tracedConn)(nil)
	_ transport.DeadlineCaller       = (*tracedConn)(nil)
	_ transport.StreamDeadlineCaller = (*tracedConn)(nil)
	_ transport.StreamHandler        = (*tracedHandler)(nil)
)

func (c *tracedConn) Call(req proto.Message) (proto.Message, error) {
	return c.CallDeadline(req, time.Time{})
}

func (c *tracedConn) CallDeadline(req proto.Message, deadline time.Time) (proto.Message, error) {
	s := callSpan{from: c.t.now()}
	s.op = c.t.currentOp()
	s.start = c.t.now()
	resp, err := transport.CallWithDeadline(c.inner, req, deadline)
	s.end = c.t.now()
	c.t.addCall(s)
	return resp, err
}

func (c *tracedConn) CallStream(req proto.Message, yield func(*proto.RowsResponse) error) error {
	return c.CallStreamDeadline(req, time.Time{}, yield)
}

func (c *tracedConn) CallStreamDeadline(req proto.Message, deadline time.Time, yield func(*proto.RowsResponse) error) error {
	s := callSpan{from: c.t.now()}
	s.op = c.t.currentOp()
	s.start = c.t.now()
	err := transport.CallStreamWithDeadline(c.inner, req, deadline, func(chunk *proto.RowsResponse) error {
		s.chunks++
		y := c.t.now()
		err := yield(chunk)
		s.yield += c.t.now() - y
		return err
	})
	s.end = c.t.now()
	c.t.addCall(s)
	return err
}

func (c *tracedConn) Stats() transport.Stats { return c.inner.Stats() }
func (c *tracedConn) Close() error           { return c.inner.Close() }

// handler wraps h, timing each request net of the time its row chunks wait
// in emit (which, on the loopback, includes the client consuming them).
func (t *tracer) handler(h transport.Handler) transport.Handler {
	return &tracedHandler{inner: h, t: t}
}

type tracedHandler struct {
	inner transport.Handler
	t     *tracer
}

func (h *tracedHandler) Handle(req proto.Message) proto.Message {
	start := h.t.now()
	resp := h.inner.Handle(req)
	h.t.addHandle(req.Kind(), h.t.now()-start)
	return resp
}

func (h *tracedHandler) HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (bool, error) {
	sh, ok := h.inner.(transport.StreamHandler)
	if !ok {
		return false, nil
	}
	start := h.t.now()
	var emitting int64
	handled, err := sh.HandleStream(req, func(chunk *proto.RowsResponse) error {
		e := h.t.now()
		err := emit(chunk)
		emitting += h.t.now() - e
		return err
	})
	if handled {
		h.t.addHandle(req.Kind(), h.t.now()-start-emitting)
	}
	return handled, err
}

// selfNs is each op's span minus the union of its call spans, each
// widened by the tracer's work around it, averaged over the ops.
func selfNs(ops []opSpan, calls []callSpan) float64 {
	byOp := make(map[int64][][2]int64)
	for _, c := range calls {
		if c.op >= 0 {
			byOp[c.op] = append(byOp[c.op], [2]int64{c.from, c.to})
		}
	}
	var total float64
	for _, o := range ops {
		iv := byOp[o.id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, reach int64 = 0, o.start
		for _, x := range iv {
			s, e := max(x[0], reach), min(x[1], o.end)
			if e > s {
				covered += e - s
				reach = e
			}
		}
		total += float64(o.end - o.start - covered)
	}
	return total / float64(max(len(ops), 1))
}

// codecTimings times the benchmark's own calls into sql.Parse, opp and
// secretshare on the texts and values the window's ops sampled: parse µs
// per op (median), and ns per value for the two share encodings and the
// K-share Lagrange combine.
func (t *tracer) codecTimings() (parseUs, oppNs, ssSplitNs, combineNs float64, err error) {
	var perOp []float64
	for _, texts := range t.texts {
		start := time.Now()
		for _, q := range texts {
			if _, err := sql.Parse(q); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		perOp = append(perOp, float64(time.Since(start))/1e3)
	}
	oppSch, err := opp.NewScheme(opp.Params{Degree: 3, DomainBits: 40, N: providers}, masterKey)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	ssSch, err := secretshare.NewSchemeFromKey(2, providers, masterKey)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	// INT cells are biased into [0, 2^40) before sharing, as the client does.
	const bias = 1 << 39
	if n := len(t.written); n > 0 {
		start := time.Now()
		for _, v := range t.written {
			if _, err := oppSch.Split(uint64(v + bias)); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		oppNs = float64(time.Since(start)) / float64(n)
		start = time.Now()
		for _, v := range t.written {
			if _, err := ssSch.Split(field.New(uint64(v+bias)), rand.Reader); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		ssSplitNs = float64(time.Since(start)) / float64(n)
	}
	if n := len(t.readVals); n > 0 {
		weights, err := ssSch.WeightsFor([]int{0, 1})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		ys := make([][2]field.Element, n)
		for i, v := range t.readVals {
			sh, err := ssSch.Split(field.New(uint64(v+bias)), rand.Reader)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			ys[i] = [2]field.Element{sh[0].Y, sh[1].Y}
		}
		start := time.Now()
		for i := range ys {
			if _, err := secretshare.CombineShares(weights, ys[i][:]); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		combineNs = float64(time.Since(start)) / float64(n)
	}
	return median(perOp), oppNs, ssSplitNs, combineNs, nil
}
