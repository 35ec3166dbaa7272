package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"sssdb/internal/proto"
)

// drainCursor collects every batch into one response, recording how many
// batches the cursor produced.
func drainCursor(t *testing.T, cur *ScanCursor) (*proto.RowsResponse, int) {
	t.Helper()
	out := &proto.RowsResponse{Columns: cur.Columns()}
	batches := 0
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out, batches
		}
		if len(b.Rows) == 0 {
			t.Fatal("cursor emitted an empty batch")
		}
		batches++
		out.Rows = append(out.Rows, b.Rows...)
	}
}

func sameRows(a, b *proto.RowsResponse) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if a.Rows[i].ID != b.Rows[i].ID || len(a.Rows[i].Cells) != len(b.Rows[i].Cells) {
			return false
		}
		for j := range a.Rows[i].Cells {
			if !bytes.Equal(a.Rows[i].Cells[j], b.Rows[i].Cells[j]) {
				return false
			}
		}
	}
	return true
}

// TestCursorMatchesScan drives every filter shape through both Scan and
// OpenCursor with a batch size small enough to force many batches, and
// requires identical rows in identical order.
func TestCursorMatchesScan(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	var rows []proto.Row
	for i := uint64(1); i <= 500; i++ {
		rows = append(rows, row(i, i%97))
	}
	if err := s.Insert("employees", rows); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		filter *proto.Filter
		proj   []string
		limit  uint64
	}{
		{"full", nil, nil, 0},
		{"full-limit", nil, nil, 7},
		{"indexed-range", &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(10), Hi: oppCell(40)}, nil, 0},
		{"indexed-range-limit", &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(10), Hi: oppCell(40)}, nil, 5},
		{"indexed-eq", &proto.Filter{Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(13)}, nil, 0},
		{"unindexed", &proto.Filter{Col: "note", Op: proto.FilterRange, Lo: []byte("n1"), Hi: []byte("n2")}, nil, 0},
		{"projected", &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(96)}, []string{"salary#f"}, 0},
		{"empty", &proto.Filter{Col: "salary#o", Op: proto.FilterEq, Lo: oppCell(999)}, nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := s.Scan("employees", tc.filter, tc.proj, tc.limit, false)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := s.OpenCursor("employees", tc.filter, tc.proj, tc.limit, 256)
			if err != nil {
				t.Fatal(err)
			}
			got, batches := drainCursor(t, cur)
			if !sameRows(want, got) {
				t.Fatalf("cursor rows differ from Scan: scan=%d cursor=%d rows", len(want.Rows), len(got.Rows))
			}
			if len(want.Rows) > 10 && batches < 2 {
				t.Fatalf("batchBytes=256 over %d rows produced %d batch(es); want several", len(want.Rows), batches)
			}
			// A drained cursor keeps returning (nil, nil).
			if b, err := cur.Next(); err != nil || b != nil {
				t.Fatalf("Next after exhaustion = %v, %v", b, err)
			}
		})
	}
}

func TestCursorErrors(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	if _, err := s.OpenCursor("nope", nil, nil, 0, 0); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing table: %v", err)
	}
	if _, err := s.OpenCursor("employees", nil, []string{"ghost"}, 0, 0); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("bad projection: %v", err)
	}
	if _, err := s.OpenCursor("employees", &proto.Filter{Col: "salary#f", Op: proto.FilterEq, Lo: fieldCell(1)}, nil, 0, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("field filter: %v", err)
	}
	if _, err := s.OpenCursor("employees", &proto.Filter{Col: "ghost", Op: proto.FilterEq, Lo: oppCell(1)}, nil, 0, 0); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("bad filter column: %v", err)
	}
	// A table dropped mid-scan fails the next batch.
	if err := s.Insert("employees", []proto.Row{row(1, 1), row(2, 2)}); err != nil {
		t.Fatal(err)
	}
	cur, err := s.OpenCursor("employees", nil, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("employees"); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("Next after drop: %v", err)
	}
	if b, err := cur.Next(); err != nil || b != nil {
		t.Fatalf("cursor not sticky after error: %v, %v", b, err)
	}
}

// TestCursorSkipsConcurrentDeletes checks the indexed cursor tolerates rows
// vanishing between batches: deleted rows ahead of the cursor simply do not
// appear.
func TestCursorSkipsConcurrentDeletes(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	var rows []proto.Row
	for i := uint64(1); i <= 100; i++ {
		rows = append(rows, row(i, i))
	}
	if err := s.Insert("employees", rows); err != nil {
		t.Fatal(err)
	}
	cur, err := s.OpenCursor("employees",
		&proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(200)}, nil, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cur.Next()
	if err != nil || len(first.Rows) == 0 {
		t.Fatalf("first batch: %v, %v", first, err)
	}
	// Delete everything beyond salary 50 between batches.
	var doomed []uint64
	for i := uint64(51); i <= 100; i++ {
		doomed = append(doomed, i)
	}
	if _, err := s.Delete("employees", doomed); err != nil {
		t.Fatal(err)
	}
	got := len(first.Rows)
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for _, r := range b.Rows {
			if r.ID > 50 {
				t.Fatalf("row %d surfaced after its delete", r.ID)
			}
		}
		got += len(b.Rows)
	}
	if got < len(first.Rows) || got > 100 {
		t.Fatalf("row count %d out of range", got)
	}
}

// TestMatchingIDsLimitPushdown verifies limit stops the index walk early
// rather than collecting all matches and slicing.
func TestMatchingIDsLimitPushdown(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	var rows []proto.Row
	for i := uint64(1); i <= 200; i++ {
		rows = append(rows, row(i, i))
	}
	if err := s.Insert("employees", rows); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	tb := s.tables["employees"]
	for _, f := range []*proto.Filter{
		nil,
		{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(500)},
		{Col: "note", Op: proto.FilterRange, Lo: []byte("n"), Hi: []byte("nz")},
	} {
		ids, err := tb.matchingIDs(f, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 10 {
			t.Fatalf("filter %v: got %d ids, want 10", f, len(ids))
		}
		all, err := tb.matchingIDs(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 200 {
			t.Fatalf("filter %v: unlimited got %d ids, want 200", f, len(all))
		}
	}
}

// TestScanAliasesAreImmutable documents the cell-immutability invariant
// (see copyRow): responses alias table storage, so a concurrent Update must
// never write into cells a released Scan still holds. Run under -race.
func TestScanAliasesAreImmutable(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	var rows []proto.Row
	for i := uint64(1); i <= 64; i++ {
		rows = append(rows, row(i, i))
	}
	if err := s.Insert("employees", rows); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // mutator: rewrites every row repeatedly
		defer wg.Done()
		for v := uint64(100); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			var upd []proto.Row
			for i := uint64(1); i <= 64; i++ {
				upd = append(upd, row(i, v))
			}
			if err := s.Update("employees", upd); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // reader: scans, releases the lock, then reads every cell
		defer wg.Done()
		for n := 0; n < 200; n++ {
			resp, err := s.Scan("employees", nil, nil, 0, false)
			if err != nil {
				t.Error(err)
				return
			}
			sum := byte(0)
			for _, r := range resp.Rows {
				for _, c := range r.Cells {
					for _, b := range c {
						sum ^= b
					}
				}
			}
			_ = sum
			cur, err := s.OpenCursor("employees", nil, nil, 0, 512)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				b, err := cur.Next()
				if err != nil {
					t.Error(err)
					return
				}
				if b == nil {
					break
				}
				for _, r := range b.Rows {
					for _, c := range r.Cells {
						for _, by := range c {
							sum ^= by
						}
					}
				}
			}
		}
		close(stop)
	}()
	wg.Wait()
}

// TestCursorBatchAllocsBounded checks that one cursor batch carves its
// projected rows' Cells from a few doubling slabs: growing the batch from
// 100 to 4000 rows adds about twenty allocations (the slabs and the row
// slice grown in step with them, plus the extra pages walked), not one
// per row. Both the heap-order and the index-order paths are covered.
func TestCursorBatchAllocsBounded(t *testing.T) {
	batchAllocs := func(n uint64, f *proto.Filter) float64 {
		s := memStore(t)
		mustCreate(t, s)
		var rows []proto.Row
		for i := uint64(1); i <= n; i++ {
			rows = append(rows, row(i, i))
		}
		if err := s.Insert("employees", rows); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			cur, err := s.OpenCursor("employees", f, []string{"salary#f", "note"}, 0, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			b, err := cur.Next()
			if err != nil || uint64(len(b.Rows)) != n {
				t.Fatalf("batch: %v, %v", b, err)
			}
		})
	}
	all := &proto.Filter{Col: "salary#o", Op: proto.FilterRange, Lo: oppCell(0), Hi: oppCell(1 << 40)}
	for _, f := range []*proto.Filter{nil, all} {
		small, large := batchAllocs(100, f), batchAllocs(4000, f)
		if large-small > 24 {
			t.Errorf("filter %v: one batch of 100 rows made %.0f allocations, of 4000 rows %.0f", f, small, large)
		}
	}
}

// TestCursorRowsDoNotOverlap checks that rows carved from one slab are
// capacity-limited: appending a cell to one row leaves the next intact.
func TestCursorRowsDoNotOverlap(t *testing.T) {
	s := memStore(t)
	mustCreate(t, s)
	for i := uint64(1); i <= 50; i++ {
		if err := s.Insert("employees", []proto.Row{row(i, i)}); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := s.OpenCursor("employees", nil, []string{"note", "salary#f"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Rows {
		_ = append(b.Rows[i].Cells, []byte("clobber"))
	}
	for i, r := range b.Rows {
		if want := fmt.Sprintf("n%d", r.ID); string(r.Cells[0]) != want {
			t.Fatalf("row %d note = %q after appends, want %q", i, r.Cells[0], want)
		}
	}
}
