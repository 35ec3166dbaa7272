package client

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// execStreamingAndBuffered runs one query on both scan paths of the same
// fleet and returns the row strings from each. The data, shares, and
// providers are identical, so anything but byte-identical results is a bug
// in the streaming pipeline.
func execStreamingAndBuffered(t *testing.T, f *fleet, q string) (stream, buffered []string) {
	t.Helper()
	f.client.opts.BufferedScans = false
	stream = rowsAsStrings(f.mustExec(t, q))
	f.client.opts.BufferedScans = true
	buffered = rowsAsStrings(f.mustExec(t, q))
	f.client.opts.BufferedScans = false
	return stream, buffered
}

// TestStreamingMatchesBuffered is the differential gate for the streaming
// scan path: across every query shape Exec supports, the incremental
// pipeline (provider cursors, chunk alignment, batch reconstruction) must
// produce exactly the rows, order included, of the buffered path.
func TestStreamingMatchesBuffered(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)

	queries := []string{
		`SELECT * FROM employees`,
		`SELECT name FROM employees`,
		`SELECT name, salary FROM employees WHERE name = 'John'`,
		`SELECT * FROM employees WHERE salary BETWEEN 20 AND 60`,
		`SELECT salary FROM employees WHERE salary > 40`,
		`SELECT name FROM employees WHERE salary IN (10, 40, 80)`,
		`SELECT name FROM employees WHERE salary IN (10, 40, 80) AND dept = 2`,
		`SELECT name FROM employees WHERE salary BETWEEN 10 AND 60 AND dept = 2`,
		`SELECT salary FROM employees WHERE salary >= 10 LIMIT 3`,
		`SELECT salary FROM employees WHERE salary >= 10 AND dept >= 1 LIMIT 2`,
		`SELECT * FROM employees WHERE name = 'Nobody'`,
		`SELECT * FROM employees WHERE salary BETWEEN 60 AND 10`,
		`SELECT name FROM employees ORDER BY salary`,
		`SELECT COUNT(*), SUM(salary) FROM employees`,
	}
	for _, q := range queries {
		stream, buffered := execStreamingAndBuffered(t, f, q)
		if fmt.Sprint(stream) != fmt.Sprint(buffered) {
			t.Errorf("%s:\n  streaming %v\n  buffered  %v", q, stream, buffered)
		}
	}
}

// drainRows iterates a Rows to completion and returns its row strings.
func drainRows(t *testing.T, r *Rows) []string {
	t.Helper()
	defer r.Close()
	var out []string
	for r.Next() {
		row := r.Row()
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.Format()
		}
		out = append(out, strings.Join(parts, ","))
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Rows.Err: %v", err)
	}
	return out
}

// TestQueryRowsMatchesExec checks the public cursor API delivers the same
// rows as the one-shot form for streaming and materialized shapes alike.
func TestQueryRowsMatchesExec(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)

	queries := []string{
		`SELECT * FROM employees`,
		`SELECT name, salary FROM employees WHERE salary BETWEEN 20 AND 60`,
		`SELECT salary FROM employees WHERE salary >= 10 LIMIT 3`,
		`SELECT name FROM employees WHERE name = 'Nobody'`,
		`SELECT name FROM employees ORDER BY salary`,  // materialized: ORDER BY
		`SELECT SUM(salary), COUNT(*) FROM employees`, // materialized: aggregate
		`SELECT MEDIAN(salary) FROM employees WHERE dept = 2`,
	}
	for _, q := range queries {
		want := f.mustExec(t, q)
		r, err := f.client.QueryRows(q)
		if err != nil {
			t.Fatalf("QueryRows(%q): %v", q, err)
		}
		if fmt.Sprint(r.Columns()) != fmt.Sprint(want.Columns) {
			t.Errorf("%s: columns %v, want %v", q, r.Columns(), want.Columns)
		}
		if got := drainRows(t, r); fmt.Sprint(got) != fmt.Sprint(rowsAsStrings(want)) {
			t.Errorf("%s:\n  QueryRows %v\n  Exec      %v", q, got, rowsAsStrings(want))
		}
	}
}

// TestQueryRowsRejectsNonSelect pins the API contract: the cursor form is
// for SELECT only.
func TestQueryRowsRejectsNonSelect(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	if _, err := f.client.QueryRows(`INSERT INTO employees VALUES ('Eve', 5, 1)`); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("QueryRows(INSERT) err %v, want ErrUnsupported", err)
	}
	if _, err := f.client.QueryRows(`SELECT * FROM missing`); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("QueryRows(missing table) err %v, want ErrNoSuchTable", err)
	}
}

// TestQueryRowsCloseReleasesLock proves an abandoned cursor cannot wedge
// the client: Close mid-iteration releases the shared statement lock, so a
// following exclusive statement (DML) proceeds.
func TestQueryRowsCloseReleasesLock(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE nums (v INT)`)
	rows := make([][]Value, 512)
	for i := range rows {
		rows[i] = []Value{IntValue(int64(i))}
	}
	if _, err := f.client.InsertValues("nums", rows); err != nil {
		t.Fatal(err)
	}

	r, err := f.client.QueryRows(`SELECT v FROM nums`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !r.Next() {
			t.Fatalf("Next()=false at row %d: %v", i, r.Err())
		}
	}
	r.Close()
	r.Close() // idempotent

	done := make(chan error, 1)
	go func() {
		_, err := f.client.Exec(`UPDATE nums SET v = 1000 WHERE v = 0`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("UPDATE after Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("UPDATE blocked: Rows.Close leaked the statement lock")
	}

	// Iterating to completion must also release it (via finish), even
	// without an explicit Close.
	r2, err := f.client.QueryRows(`SELECT v FROM nums WHERE v = 1000`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for r2.Next() {
		n++
	}
	if n != 1 || r2.Err() != nil {
		t.Fatalf("rows %d err %v", n, r2.Err())
	}
	go func() {
		_, err := f.client.Exec(`UPDATE nums SET v = 0 WHERE v = 1000`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("UPDATE after exhaustion: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("UPDATE blocked: exhausted Rows leaked the statement lock")
	}
	r2.Close()
}

// TestStreamingLimitWireBytes asserts the O(limit) transfer property: a
// LIMIT-10 scan over a large table must move a small fraction of the bytes
// of the full scan, because the limit is pushed into the provider cursors
// (and the residual-predicate variant is cut short by cancel frames).
func TestStreamingLimitWireBytes(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	f.mustExec(t, `CREATE TABLE nums (v INT, w INT)`)
	const n = 4096
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{IntValue(int64(i)), IntValue(int64(i % 7))}
	}
	if _, err := f.client.InsertValues("nums", rows); err != nil {
		t.Fatal(err)
	}

	measure := func(q string, wantRows int) uint64 {
		t.Helper()
		before := f.client.Stats().BytesReceived
		res := f.mustExec(t, q)
		if len(res.Rows) != wantRows {
			t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), wantRows)
		}
		return f.client.Stats().BytesReceived - before
	}

	full := measure(`SELECT v FROM nums WHERE v >= 0`, n)
	limited := measure(`SELECT v FROM nums WHERE v >= 0 LIMIT 10`, 10)
	if limited*20 > full {
		t.Errorf("LIMIT 10 received %d bytes vs %d for the full scan; want <1/20 (limit pushdown broken)", limited, full)
	}
}

// TestStreamingFallbackOnCrash checks failover ownership: when a quorum
// provider is down, the streaming attempt fails before any row reaches the
// caller and both Exec and QueryRows silently retry on the buffered path,
// which fails over to the surviving providers.
func TestStreamingFallbackOnCrash(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)

	f.faults[0].Crash()
	res := f.mustExec(t, `SELECT name FROM employees WHERE salary BETWEEN 10 AND 80`)
	if len(res.Rows) != 6 {
		t.Fatalf("Exec with crashed provider: %d rows, want 6", len(res.Rows))
	}

	f2 := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f2)
	f2.faults[1].Crash()
	r, err := f2.client.QueryRows(`SELECT name FROM employees`)
	if err != nil {
		t.Fatalf("QueryRows with crashed provider: %v", err)
	}
	if got := drainRows(t, r); len(got) != 6 {
		t.Fatalf("QueryRows with crashed provider: %d rows, want 6", len(got))
	}
}

// TestStreamingSeesOwnInserts pins read-your-writes through the watermark
// filter: rows inserted by completed statements are visible to the very
// next streaming scan.
func TestStreamingSeesOwnInserts(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	f.mustExec(t, `INSERT INTO employees VALUES ('Zoe', 99, 4)`)
	res := f.mustExec(t, `SELECT name, salary FROM employees WHERE salary = 99`)
	if got := fmt.Sprint(rowsAsStrings(res)); got != "[Zoe,99]" {
		t.Fatalf("after insert: %s", got)
	}
}

// TestQueryRowsRowsDoNotOverlap pins the ownership rule of Rows.Row: rows
// come from a shared slab, but each is a capacity-limited window of it, so
// a caller appending to one row never changes another, on the streaming
// path and on a materialized result alike.
func TestQueryRowsRowsDoNotOverlap(t *testing.T) {
	f := newFleet(t, 3, 2, Options{})
	setupEmployees(t, f)
	for _, q := range []string{
		`SELECT salary, name FROM employees`,
		`SELECT * FROM employees ORDER BY salary`,
	} {
		want := rowsAsStrings(f.mustExec(t, q))
		r, err := f.client.QueryRows(q)
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]Value
		for r.Next() {
			row := r.Row()
			if cap(row) != len(row) {
				t.Fatalf("%s: row has len %d, cap %d", q, len(row), cap(row))
			}
			rows = append(rows, row)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			_ = append(rows[i], IntValue(-1))
		}
		got := rowsAsStrings(&Result{Rows: rows})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s after appends:\n  got  %v\n  want %v", q, got, want)
		}
	}
}
