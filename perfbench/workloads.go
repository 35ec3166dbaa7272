package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"

	"sssdb/internal/client"
	"sssdb/internal/workload"
)

// spec is one workload: a traffic mix against the table
// acct(id INT, name VARCHAR(8), bal INT), held by three providers with K=2.
type spec struct {
	name string
	// rows are loaded by set-up, through Client.InsertValues.
	rows int
	// tcp puts each store behind a transport.Server on 127.0.0.1, reached
	// over the multiplexed protocol; otherwise providers are in-process
	// loopback connections, which still run the full wire codec.
	tcp bool
	// durable stores keep a WAL (fsync per commit) and page files;
	// otherwise stores are memory-only.
	durable bool
	// cacheBytes is each durable provider's page-cache budget (0 = the
	// store's default).
	cacheBytes int64
	// workers is the number of closed-loop clients sharing one Client,
	// capped at the CPU count.
	workers int
	// opsPerSecond sizes a run: the window measures opsPerSecond×seconds
	// ops, a count fixed before the run so that per-op counters repeat.
	opsPerSecond int
	// insertsPerOp is the most rows one op inserts; it sizes the oracle
	// before set-up, so the oracle's growth does not count as heap.
	insertsPerOp int
	// newWorker returns worker w's op source.
	newWorker func(b *bench, w int) opFunc
}

// opFunc runs one op. It calls o.begin and o.end around the timed part
// and checks the result against the oracle after o.end.
type opFunc func(o *op) error

var workloads = map[string]*spec{
	"point-tcp": {
		name: "point-tcp", rows: 100_000, tcp: true, workers: 2,
		opsPerSecond: 7000, insertsPerOp: 1, newWorker: pointWorker,
	},
	"scan-paged": {
		name: "scan-paged", rows: 120_000, durable: true, cacheBytes: 3 << 20, workers: 1,
		opsPerSecond: 230, newWorker: scanWorker,
	},
	"ingest-txn": {
		name: "ingest-txn", rows: 20_000, workers: 2,
		opsPerSecond: 1500, insertsPerOp: txnInserts, newWorker: txnWorker,
	},
}

// config is one run's shape. Tests shrink rows and ops.
type config struct {
	wl        *spec
	seed      int64
	rows      int
	workers   int
	ops       int // measured ops, split evenly over the workers
	warmup    int // ops run and checked but not measured
	setupReps int // set-ups per run; setup_s is their median
	dataDir   string
	// hedgeDelay is the client's Options.HedgeDelay: zero, the program's
	// default dynamic threshold, except in tests that compare call counts.
	hedgeDelay time.Duration
}

func defaultConfig(wl *spec, seed int64, seconds int) config {
	ops := wl.opsPerSecond * seconds
	return config{
		wl:        wl,
		seed:      seed,
		rows:      wl.rows,
		workers:   max(1, min(wl.workers, runtime.NumCPU())),
		ops:       ops,
		warmup:    max(ops/10, 1),
		setupReps: 3,
	}
}

const (
	balMax = 1_000_000
	// insertStride separates the id ranges each worker inserts into; they
	// start above every loaded id.
	insertStride = 1 << 24
	// zipfS skews point-tcp's keys within each worker's range.
	zipfS = 1.1
)

// dataset is the oracle: the rows the table must hold. Worker w owns the
// loaded ids [w*per, (w+1)*per) and the ids it inserts, insertBase(w)+j,
// so workers write disjoint parts of the dataset without locking.
type dataset struct {
	rows    int
	per     int
	name    []string
	bal     []int64
	inserts [][]insertedRow
	// balPrefix and namePrefix are prefix sums of the rows as loaded, for
	// the read-only scan-paged to check range results in O(1).
	balPrefix  []int64
	namePrefix []int64
}

type insertedRow struct {
	name string
	bal  int64
}

// newDataset draws cfg's rows and sizes each worker's inserts for the
// most that the warm-up and the window can add.
func newDataset(cfg config) *dataset {
	rows, workers := cfg.rows, cfg.workers
	rng := rand.New(rand.NewSource(cfg.seed))
	d := &dataset{
		rows:    rows,
		per:     rows / workers,
		name:    make([]string, rows),
		bal:     make([]int64, rows),
		inserts: make([][]insertedRow, workers),
	}
	// run gives a worker at most n/workers+1 of n ops.
	maxInserts := cfg.wl.insertsPerOp * ((cfg.warmup+cfg.ops)/workers + 2)
	for w := range d.inserts {
		d.inserts[w] = make([]insertedRow, 0, maxInserts)
	}
	for i := range d.name {
		d.name[i] = randName(rng)
		d.bal[i] = rng.Int63n(balMax)
	}
	d.balPrefix = make([]int64, rows+1)
	d.namePrefix = make([]int64, rows+1)
	for i := 0; i < rows; i++ {
		d.balPrefix[i+1] = d.balPrefix[i] + d.bal[i]
		d.namePrefix[i+1] = d.namePrefix[i] + nameSum(d.name[i])
	}
	return d
}

func insertBase(w int) int { return insertStride * (w + 1) }

// totals is the row count and SUM(bal) the whole table must report.
func (d *dataset) totals() (count, sum int64) {
	count = int64(d.rows)
	for _, b := range d.bal {
		sum += b
	}
	for _, ins := range d.inserts {
		count += int64(len(ins))
		for _, r := range ins {
			sum += r.bal
		}
	}
	return count, sum
}

func randName(rng *rand.Rand) string {
	b := make([]byte, 4+rng.Intn(5))
	for i := range b {
		b[i] = byte('A' + rng.Intn(26))
	}
	return string(b)
}

// nameSum is an order-independent checksum term for one name.
func nameSum(s string) int64 {
	var h int64
	for i := 0; i < len(s); i++ {
		h = h*31 + int64(s[i])
	}
	return h
}

// loadBatch is the InsertValues batch size of set-up.
const loadBatch = 2000

// load inserts the dataset's loaded rows in id order.
func (b *bench) load() error {
	d := b.data
	batch := make([][]client.Value, 0, loadBatch)
	for id := 0; id < d.rows; id++ {
		batch = append(batch, []client.Value{
			client.IntValue(int64(id)), client.StringValue(d.name[id]), client.IntValue(d.bal[id]),
		})
		if len(batch) == loadBatch || id == d.rows-1 {
			if _, err := b.client.InsertValues("acct", batch); err != nil {
				return fmt.Errorf("load: %w", err)
			}
			batch = batch[:0]
		}
	}
	return nil
}

// verifyTotals checks the whole table's COUNT(*) and SUM(bal) against the
// oracle.
func (b *bench) verifyTotals() error {
	res, err := b.client.Exec("SELECT COUNT(*), SUM(bal) FROM acct")
	if err != nil {
		return fmt.Errorf("final totals: %w", err)
	}
	wantCount, wantSum := b.data.totals()
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 ||
		res.Rows[0][0].I != wantCount || res.Rows[0][1].I != wantSum {
		return fmt.Errorf("final totals: got %v, want count=%d sum=%d", res.Rows, wantCount, wantSum)
	}
	return nil
}

// --- point-tcp ---

// pointMix is 90% point SELECT, 5% point UPDATE, and 5% single-row INSERT,
// which rides the mix's scan slot.
var pointMix = workload.Mix{Name: "point-tcp", Read: 90, Write: 5, Scan: 5}

func pointWorker(b *bench, w int) opFunc {
	d := b.data
	lo := w * d.per
	keys := workload.NewOpStream(pointMix, uint64(d.per), zipfS, b.cfg.seed*7919+int64(w)+1)
	rng := rand.New(rand.NewSource(b.cfg.seed*104729 + int64(w) + 1))
	return func(o *op) error {
		k := keys.Next()
		id := lo + int(k.Key) - 1
		switch k.Kind {
		case workload.OpRead:
			q := "SELECT id, name, bal FROM acct WHERE id = " + strconv.Itoa(id)
			o.begin(q)
			res, err := b.client.Exec(q)
			o.end()
			if err != nil {
				return err
			}
			if len(res.Rows) != 1 || len(res.Rows[0]) != 3 {
				return fmt.Errorf("%s: got %d rows", q, len(res.Rows))
			}
			r := res.Rows[0]
			if r[0].I != int64(id) || r[1].S != d.name[id] || r[2].I != d.bal[id] {
				return fmt.Errorf("%s: got (%d, %q, %d), want (%d, %q, %d)",
					q, r[0].I, r[1].S, r[2].I, id, d.name[id], d.bal[id])
			}
			o.read(r[0].I, r[2].I)
		case workload.OpWrite:
			v := rng.Int63n(balMax)
			q := "UPDATE acct SET bal = " + strconv.FormatInt(v, 10) + " WHERE id = " + strconv.Itoa(id)
			o.begin(q)
			res, err := b.client.Exec(q)
			o.end()
			if err != nil {
				return err
			}
			if res.Affected != 1 {
				return fmt.Errorf("%s: affected %d rows", q, res.Affected)
			}
			d.bal[id] = v
			o.wrote(v)
		default:
			row := insertedRow{name: randName(rng), bal: rng.Int63n(balMax)}
			nid := insertBase(w) + len(d.inserts[w])
			q := fmt.Sprintf("INSERT INTO acct VALUES (%d, '%s', %d)", nid, row.name, row.bal)
			o.begin(q)
			res, err := b.client.Exec(q)
			o.end()
			if err != nil {
				return err
			}
			if res.Affected != 1 {
				return fmt.Errorf("%s: affected %d rows", q, res.Affected)
			}
			d.inserts[w] = append(d.inserts[w], row)
			o.wrote(int64(nid), row.bal)
		}
		return nil
	}
}

// --- scan-paged ---

// orderLimit is the LIMIT of scan-paged's ORDER BY op.
const orderLimit = 100

func scanWorker(b *bench, w int) opFunc {
	d := b.data
	span := max(1, d.rows/100)
	rng := rand.New(rand.NewSource(b.cfg.seed*104729 + int64(w) + 1))
	// Every ten ops hold exactly seven scans, two aggregates and one
	// ORDER BY, in seeded order, so the mix does not drift between seeds.
	deck := []int{0, 0, 0, 0, 0, 0, 0, 1, 1, 2}
	next := len(deck)
	return func(o *op) error {
		if next == len(deck) {
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			next = 0
		}
		kind := deck[next]
		next++
		lo := rng.Intn(d.rows - span + 1)
		hi := lo + span - 1
		switch kind {
		case 0:
			return scanRange(b, o, lo, hi)
		case 1:
			q := fmt.Sprintf("SELECT SUM(bal), COUNT(*) FROM acct WHERE id BETWEEN %d AND %d", lo, hi)
			o.begin(q)
			res, err := b.client.Exec(q)
			o.end()
			if err != nil {
				return err
			}
			want := d.balPrefix[hi+1] - d.balPrefix[lo]
			if len(res.Rows) != 1 || len(res.Rows[0]) != 2 ||
				res.Rows[0][0].I != want || res.Rows[0][1].I != int64(span) {
				return fmt.Errorf("%s: got %v, want sum=%d count=%d", q, res.Rows, want, span)
			}
			return nil
		default:
			return orderRange(b, o, lo, hi)
		}
	}
}

// scanRange drains a streaming range scan and checks its row count and
// checksums.
func scanRange(b *bench, o *op, lo, hi int) error {
	d := b.data
	q := fmt.Sprintf("SELECT id, name, bal FROM acct WHERE id BETWEEN %d AND %d", lo, hi)
	o.begin(q)
	rows, err := b.client.QueryRows(q)
	if err != nil {
		o.end()
		return err
	}
	var n, ids, bals, names int64
	for rows.Next() {
		if n == 0 {
			o.firstRow()
		}
		r := rows.Row()
		n++
		ids += r[0].I
		bals += r[2].I
		names += nameSum(r[1].S)
		o.read(r[0].I, r[2].I)
	}
	err = rows.Err()
	rows.Close()
	o.end()
	if err != nil {
		return err
	}
	span := int64(hi - lo + 1)
	wantIDs := (int64(lo) + int64(hi)) * span / 2
	if n != span || ids != wantIDs || bals != d.balPrefix[hi+1]-d.balPrefix[lo] ||
		names != d.namePrefix[hi+1]-d.namePrefix[lo] {
		return fmt.Errorf("%s: %d rows or checksums differ from the oracle", q, n)
	}
	return nil
}

// orderRange checks that ORDER BY bal LIMIT returns the smallest balances
// of the range, in order, each on its own row.
func orderRange(b *bench, o *op, lo, hi int) error {
	d := b.data
	q := fmt.Sprintf("SELECT id, bal FROM acct WHERE id BETWEEN %d AND %d ORDER BY bal LIMIT %d",
		lo, hi, orderLimit)
	o.begin(q)
	res, err := b.client.Exec(q)
	o.end()
	if err != nil {
		return err
	}
	want := append([]int64(nil), d.bal[lo:hi+1]...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	want = want[:min(orderLimit, len(want))]
	if len(res.Rows) != len(want) {
		return fmt.Errorf("%s: got %d rows, want %d", q, len(res.Rows), len(want))
	}
	for i, r := range res.Rows {
		id := r[0].I
		if id < int64(lo) || id > int64(hi) || r[1].I != want[i] || d.bal[id] != r[1].I {
			return fmt.Errorf("%s: row %d is (%d, %d), want bal %d", q, i, id, r[1].I, want[i])
		}
	}
	return nil
}

// --- ingest-txn ---

// txnInserts is the INSERT count of each ingest-txn transaction.
const txnInserts = 4

func txnWorker(b *bench, w int) opFunc {
	d := b.data
	lo := w * d.per
	rng := rand.New(rand.NewSource(b.cfg.seed*104729 + int64(w) + 1))
	return func(o *op) error {
		var rows [txnInserts]insertedRow
		var texts [txnInserts + 1]string
		next := insertBase(w) + len(d.inserts[w])
		for i := range rows {
			rows[i] = insertedRow{name: randName(rng), bal: rng.Int63n(balMax)}
			texts[i] = fmt.Sprintf("INSERT INTO acct VALUES (%d, '%s', %d)", next+i, rows[i].name, rows[i].bal)
		}
		uid := lo + rng.Intn(d.per)
		ubal := rng.Int63n(balMax)
		texts[txnInserts] = "UPDATE acct SET bal = " + strconv.FormatInt(ubal, 10) + " WHERE id = " + strconv.Itoa(uid)

		o.begin(texts[:]...)
		tx, err := b.client.Begin()
		if err != nil {
			o.end()
			return err
		}
		for _, q := range texts {
			if _, err := tx.Exec(q); err != nil {
				o.end()
				_ = tx.Rollback() // the statement error is the one to report
				return fmt.Errorf("%s: %w", q, err)
			}
		}
		err = o.commit(tx)
		o.end()
		if err != nil {
			if errors.Is(err, client.ErrTxAborted) {
				return fmt.Errorf("commit aborted: %w", err)
			}
			return fmt.Errorf("commit: %w", err)
		}
		d.inserts[w] = append(d.inserts[w], rows[:]...)
		d.bal[uid] = ubal
		for i, r := range rows {
			o.wrote(int64(next+i), r.bal)
		}
		o.wrote(ubal)
		return nil
	}
}
