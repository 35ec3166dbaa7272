package store

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"sssdb/internal/proto"
)

// DefaultCursorBatchBytes bounds one cursor batch's row payload when the
// caller passes 0; it matches the transport's default stream chunk size so
// one batch becomes one wire frame.
const DefaultCursorBatchBytes = 256 << 10

// ScanCursor iterates a scan in bounded batches instead of materializing
// the whole result set under the store lock. The cursor holds the store
// lock only while assembling one batch: between batches, concurrent
// mutations proceed freely — including checkpoints and page eviction, which
// the cursor tolerates because it holds no page reference across batches.
// Index-order cursors re-seek the B+-tree at the last emitted composite
// key, so rows inserted behind the cursor are skipped and rows inserted
// ahead are observed — exactly the semantics of the client's
// stable-watermark filtering, which hides in-flight inserts by row id.
// Heap-order cursors resume at the page directory after the last scanned
// row id, faulting each page in on demand, so a full scan of a
// bigger-than-cache table never holds more than the cache budget resident.
//
// Returned batches alias page cell storage; see the immutability invariant
// on copyRow — cells stay valid after the lock is released and even after
// the page is evicted.
type ScanCursor struct {
	s    *Store
	name string
	cols []string
	// colIdx maps each output column to its cell index in stored rows.
	colIdx []int

	// Index-order state: iterate idxCol's B+-tree over [nextKey, endKey).
	indexed bool
	idxCol  string
	nextKey []byte
	endKey  []byte

	// Heap-order state: resume the page walk after the last scanned row id.
	// filterCol is the cell index an unindexed filter compares (-1 = none).
	filterCol int
	lo, hi    []byte
	afterID   uint64
	started   bool

	// remaining counts rows the limit still allows (^0 = unlimited).
	remaining  uint64
	batchBytes int
	done       bool

	// slab backs the Cells slices of the current batch's projected rows;
	// slabRows is the row capacity it was last allocated with.
	slab     [][]byte
	slabRows int
}

// Cursor cell-slab sizing, in projected rows. A batch's first slab is
// small, so a one-row lookup allocates little more than the row needs;
// each further slab doubles, up to a cap, so a full batch takes a handful
// of allocations instead of one per row.
const (
	cursorSlabMinRows = 4
	cursorSlabMaxRows = 1024
)

const unlimitedRows = ^uint64(0)

// OpenCursor validates the scan and returns a cursor over its result.
// Filters on an indexed column iterate the index incrementally; everything
// else walks the row heap page by page, applying the filter inline. A
// non-zero limit caps the total rows emitted (and stops provider-side
// walking early); batchBytes bounds one batch's row payload (0 means
// DefaultCursorBatchBytes). Proof-carrying scans have no cursor form: a
// Merkle completeness proof covers the whole result, so verified reads use
// the buffered Scan.
func (s *Store) OpenCursor(name string, f *proto.Filter, projection []string, limit uint64, batchBytes int) (*ScanCursor, error) {
	if batchBytes <= 0 {
		batchBytes = DefaultCursorBatchBytes
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.table(name)
	if err != nil {
		return nil, err
	}
	cols, colIdx, err := t.resolveProjection(projection)
	if err != nil {
		return nil, err
	}
	cur := &ScanCursor{
		s:          s,
		name:       name,
		cols:       cols,
		colIdx:     colIdx,
		filterCol:  -1,
		remaining:  unlimitedRows,
		batchBytes: batchBytes,
	}
	if limit > 0 {
		cur.remaining = limit
	}
	if f != nil {
		ci, lo, hi, err := t.filterBounds(f)
		if err != nil {
			return nil, err
		}
		if t.spec.Columns[ci].Indexed {
			if _, err := t.ensureIndexes(); err != nil {
				return nil, err
			}
			cur.indexed = true
			cur.idxCol = f.Col
			cur.nextKey = indexKey(lo, 0)
			cur.endKey = append(indexKey(hi, ^uint64(0)), 0)
			return cur, nil
		}
		cur.filterCol = ci
		cur.lo = append([]byte(nil), lo...)
		cur.hi = append([]byte(nil), hi...)
	}
	return cur, nil
}

// Columns returns the projected column names, for callers that must frame
// an empty result.
func (cur *ScanCursor) Columns() []string { return cur.cols }

// Next assembles the next batch under a short-lived read lock. It returns
// (nil, nil) when the scan is exhausted. Batches are never empty.
func (cur *ScanCursor) Next() (*proto.RowsResponse, error) {
	if cur.done {
		return nil, nil
	}
	cur.s.mu.RLock()
	defer cur.s.mu.RUnlock()
	t, err := cur.s.table(cur.name)
	if err != nil {
		cur.done = true
		return nil, err
	}
	// Slabs are never reused across batches: an emitted batch's cells are
	// owned by whoever holds it.
	cur.slab, cur.slabRows = nil, 0
	var resp *proto.RowsResponse
	if cur.indexed {
		resp, err = cur.nextIndexed(t)
	} else {
		resp, err = cur.nextByPage(t)
	}
	if err != nil {
		cur.done = true
		return nil, err
	}
	if cur.remaining == 0 {
		cur.done = true
	}
	if resp == nil || len(resp.Rows) == 0 {
		cur.done = true
		return nil, nil
	}
	return resp, nil
}

// nextIndexed walks the B+-tree from the cursor's seek position, stopping
// at the batch-size target, and remembers the successor of the last emitted
// key so the next batch re-seeks past it.
func (cur *ScanCursor) nextIndexed(t *table) (*proto.RowsResponse, error) {
	idxs, err := t.ensureIndexes()
	if err != nil {
		return nil, err
	}
	idx, ok := idxs[cur.idxCol]
	if !ok {
		return nil, fmt.Errorf("%w: column %q lost its index mid-scan", ErrBadRequest, cur.idxCol)
	}
	resp := &proto.RowsResponse{Columns: cur.cols}
	size := 0
	var walkErr error
	idx.AscendRange(cur.nextKey, cur.endKey, func(k, _ []byte) bool {
		rowID := binary.BigEndian.Uint64(k[len(k)-8:])
		row, ok, err := t.heap.get(rowID)
		if err != nil {
			walkErr = err
			return false
		}
		// The immediate successor of k in bytewise order is k||0x00.
		cur.nextKey = append(append(cur.nextKey[:0], k...), 0)
		if !ok {
			return true // index/row raced a concurrent delete; skip
		}
		cur.emit(resp, rowID, row)
		size += proto.RowWireSize(resp.Rows[len(resp.Rows)-1])
		if cur.remaining != unlimitedRows {
			if cur.remaining--; cur.remaining == 0 {
				return false
			}
		}
		return size < cur.batchBytes
	})
	if walkErr != nil {
		return nil, walkErr
	}
	return resp, nil
}

// nextByPage walks the page directory from the row id after the last
// scanned one, faulting pages in through the cache and applying any
// unindexed filter inline. Each page is only touched while the store lock
// is held; eviction between batches just means the resume faults it back.
func (cur *ScanCursor) nextByPage(t *table) (*proto.RowsResponse, error) {
	resp := &proto.RowsResponse{Columns: cur.cols}
	size := 0
	err := t.heap.ascendPages(cur.afterID, cur.started, func(rows []proto.Row) (bool, error) {
		for _, row := range rows {
			cur.afterID, cur.started = row.ID, true
			if cur.filterCol >= 0 {
				cell := row.Cells[cur.filterCol]
				if bytes.Compare(cell, cur.lo) < 0 || bytes.Compare(cell, cur.hi) > 0 {
					continue
				}
			}
			cur.emit(resp, row.ID, row)
			size += proto.RowWireSize(resp.Rows[len(resp.Rows)-1])
			if cur.remaining != unlimitedRows {
				if cur.remaining--; cur.remaining == 0 {
					return false, nil
				}
			}
			if size >= cur.batchBytes {
				return false, nil
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// emit appends the row's projection to the batch, carving its Cells slice
// from the batch's slab. Each new slab holds twice the rows of the last,
// and the batch's row slice grows in step with it, so a batch of n rows
// allocates O(log n) times up to the cap, not once per row.
func (cur *ScanCursor) emit(resp *proto.RowsResponse, id uint64, row proto.Row) {
	w := len(cur.colIdx)
	if len(cur.slab) < w {
		rows := min(max(2*cur.slabRows, cursorSlabMinRows), cursorSlabMaxRows)
		if cur.remaining != unlimitedRows && cur.remaining < uint64(rows) {
			rows = int(cur.remaining)
		}
		cur.slab, cur.slabRows = make([][]byte, rows*w), rows
		if cap(resp.Rows)-len(resp.Rows) < rows {
			resp.Rows = append(make([]proto.Row, 0, len(resp.Rows)+rows), resp.Rows...)
		}
	}
	out := proto.Row{ID: id, Cells: cur.slab[:w:w]}
	cur.slab = cur.slab[w:]
	for i, ci := range cur.colIdx {
		out.Cells[i] = row.Cells[ci]
	}
	resp.Rows = append(resp.Rows, out)
}
