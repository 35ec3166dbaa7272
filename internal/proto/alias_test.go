package proto

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hugeCount is the uvarint 2^24-1, just under maxListLen.
var hugeCount = []byte{0xff, 0xff, 0xff, 0x07}

// TestDecodeHostileCountAllocatesLittle feeds frames whose list counts
// promise far more elements than the frame could hold. Each must fail
// without allocating for the promised elements: before counts were
// checked against the remaining bytes, the 6-byte KRows frame made Decode
// allocate 512 MB before it returned ErrTruncated.
func TestDecodeHostileCountAllocatesLittle(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	frames := map[string][]byte{
		"rows":           cat([]byte{byte(KRows), 0}, hugeCount),
		"columns":        cat([]byte{byte(KRows)}, []byte{0xff, 0x1f}),
		"row cells":      cat([]byte{byte(KRows), 0, 1, 7}, []byte{0xff, 0x1f}),
		"agg row cells":  cat([]byte{byte(KAggResult), 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 7}, []byte{0xff, 0x1f}),
		"insert rows":    cat([]byte{byte(KInsert), 1, 't'}, hugeCount),
		"delete ids":     cat([]byte{byte(KDelete), 1, 't'}, hugeCount),
		"projection":     cat([]byte{byte(KScan), 1, 't', 0}, []byte{0xff, 0x1f}),
		"spec columns":   cat([]byte{byte(KCreateTable), 1, 't'}, []byte{0xff, 0x1f}),
		"specs":          cat([]byte{byte(KTables)}, []byte{0xff, 0xff, 0x03}),
		"groups":         cat([]byte{byte(KGroupResult)}, hugeCount),
		"joined rows":    cat([]byte{byte(KJoinResult), 0}, hugeCount),
		"tx prepare ops": cat([]byte{byte(KTxPrepare), 0, 0, 0, 0, 0, 0, 0, 1}, []byte{0xff, 0xff, 0x3f}),
		"tx record ops":  cat([]byte{byte(KTxOps), 0, 0, 0, 0, 0, 0, 0, 1, 2}, []byte{0xff, 0xff, 0x3f}),
	}
	for name, frame := range frames {
		var err error
		got := allocatedBytes(func() { _, err = Decode(frame) })
		if err == nil {
			t.Errorf("%s: hostile frame %x decoded", name, frame)
		}
		if got >= 64<<10 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", name, len(frame), got)
		}
	}
	// The 6-byte frame: KRows, no columns, 2^24-1 rows.
	_, err := Decode([]byte{byte(KRows), 0, 0xff, 0xff, 0xff, 0x07})
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("6-byte KRows frame: got %v, want ErrTruncated", err)
	}
}

// rowsResponse builds a RowsResponse of n rows with three 8-byte cells.
func rowsResponse(n int) *RowsResponse {
	m := &RowsResponse{Columns: []string{"a#f", "b#f", "c#f"}}
	for i := 0; i < n; i++ {
		row := Row{ID: uint64(i + 1)}
		for c := 0; c < 3; c++ {
			row.Cells = append(row.Cells, []byte(fmt.Sprintf("%08d", i*3+c)))
		}
		m.Rows = append(m.Rows, row)
	}
	return m
}

// TestDecodedCellsAreCapLimited pins the aliasing contract: decoded cells
// share the frame, but an append to one cell reallocates rather than
// overwriting the cell after it.
func TestDecodedCellsAreCapLimited(t *testing.T) {
	msg, err := Decode(Encode(rowsResponse(4)))
	if err != nil {
		t.Fatal(err)
	}
	rows := msg.(*RowsResponse).Rows
	want := rowsResponse(4).Rows
	for i := range rows {
		for c := range rows[i].Cells {
			_ = append(rows[i].Cells[c], 'X', 'X', 'X')
		}
		// Appending a cell to a row must not overwrite the next row's.
		_ = append(rows[i].Cells, []byte("extra"))
	}
	for i := range rows {
		for c := range rows[i].Cells {
			if !bytes.Equal(rows[i].Cells[c], want[i].Cells[c]) {
				t.Fatalf("row %d cell %d = %q after appends, want %q", i, c, rows[i].Cells[c], want[i].Cells[c])
			}
		}
	}
}

// TestDecodeAllocsIndependentOfRowCount checks that a RowsResponse decodes
// with a fixed number of allocations: the message, its column names, one
// row slice and one cell slab — never one per row or per cell.
func TestDecodeAllocsIndependentOfRowCount(t *testing.T) {
	allocs := func(n int) float64 {
		buf := Encode(rowsResponse(n))
		return testing.AllocsPerRun(20, func() {
			if _, err := Decode(buf); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	if large != small || large > 8 {
		t.Fatalf("Decode allocs: 10 rows %.0f, 1000 rows %.0f; want equal and <= 8", small, large)
	}
}

// TestDecodeMixedWidthRows covers rows that outgrow the first row's slab.
func TestDecodeMixedWidthRows(t *testing.T) {
	m := &RowsResponse{Rows: []Row{
		{ID: 1, Cells: [][]byte{{1}}},
		{ID: 2, Cells: [][]byte{{2}, {3}, {4}}},
		{ID: 3},
		{ID: 4, Cells: [][]byte{{5}, nil}},
		{ID: 5, Cells: [][]byte{{6}, {7}, {8}, {9}, {10}}},
	}}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %v, want %v", got, m)
	}
	for i, r := range got.(*RowsResponse).Rows {
		if cap(r.Cells) != len(r.Cells) {
			t.Errorf("row %d: cells cap %d, len %d", i, cap(r.Cells), len(r.Cells))
		}
	}
}

// TestEncodeSizesRowMessagesOnce checks that row- and op-bearing messages
// encode into a buffer allocated once at its exact final size: Encode
// allocates the writer and its buffer, and never grows the buffer.
func TestEncodeSizesRowMessagesOnce(t *testing.T) {
	rows := rowsResponse(300)
	msgs := []Message{
		rows,
		&RowsResponse{Proof: []byte{1, 2, 3}},
		&InsertRequest{Table: "t", Rows: rows.Rows},
		&UpdateRequest{Table: "t", Rows: rows.Rows[:7]},
		&TxPrepareRequest{TxID: 9, Ops: [][]byte{Encode(rows), nil, {1}}},
		&TxOpsRecord{TxID: 9, Provider: 1 << 20, Ops: [][]byte{Encode(rows)}},
	}
	for _, m := range msgs {
		buf := Encode(m)
		if cap(buf) != len(buf) {
			t.Errorf("%T: encoded %d bytes into a %d-byte buffer", m, len(buf), cap(buf))
		}
		if a := testing.AllocsPerRun(10, func() { Encode(m) }); a != 2 {
			t.Errorf("%T: Encode made %.0f allocations, want 2", m, a)
		}
	}
}
