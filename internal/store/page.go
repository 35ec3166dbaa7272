package store

import (
	"encoding/binary"
	"fmt"
	"sort"

	"sssdb/internal/proto"
)

// Storage defaults; see Options.
const (
	// DefaultPageBytes is the target encoded size of one heap page. A page
	// that grows past the target splits in two, so pages stay within about
	// 2x the target (plus one oversized row, if a single row exceeds it).
	DefaultPageBytes = 64 << 10
	// DefaultCacheBytes is the page-cache budget of a durable store.
	DefaultCacheBytes = 64 << 20
)

// pageHeaderBytes is the fixed per-page encoding overhead (row count).
const pageHeaderBytes = 4

// encodedRowSize is the on-page footprint of one row: id, cell count, and
// per-cell length prefix plus payload. It is exact — the sum over a page's
// rows plus pageHeaderBytes equals len(encodePage(rows)) — so the same
// number drives split decisions and cache accounting.
func encodedRowSize(r proto.Row) int {
	n := 8 + 4
	for _, c := range r.Cells {
		n += 4 + len(c)
	}
	return n
}

// encodePage serializes rows (ascending by id) into a page payload. The
// payload is wrapped in the CRC + atomic-rename envelope of wal.SaveSnapshot
// when it goes to disk.
func encodePage(rows []proto.Row) []byte {
	size := pageHeaderBytes
	for _, r := range rows {
		size += encodedRowSize(r)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rows)))
	for _, r := range rows {
		buf = binary.BigEndian.AppendUint64(buf, r.ID)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Cells)))
		for _, c := range r.Cells {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(c)))
			buf = append(buf, c...)
		}
	}
	return buf
}

// decodePage parses a page payload. Cells alias the input buffer — one
// allocation backs the whole page — which the cell-immutability invariant
// makes safe: nothing ever writes into a stored cell, mutations replace
// whole rows. A first pass validates the layout and counts rows and cells,
// so the rows and all their Cells slices take exactly one allocation each.
func decodePage(data []byte) ([]proto.Row, error) {
	if len(data) < pageHeaderBytes {
		return nil, fmt.Errorf("%w: page payload too short", ErrBadRequest)
	}
	n := binary.BigEndian.Uint32(data)
	data = data[pageHeaderBytes:]
	total, err := countPageCells(data, n)
	if err != nil {
		return nil, err
	}
	rows := make([]proto.Row, n)
	slab := make([][]byte, total)
	for i := range rows {
		id := binary.BigEndian.Uint64(data)
		cells := int(binary.BigEndian.Uint32(data[8:]))
		data = data[12:]
		row := proto.Row{ID: id, Cells: slab[:cells:cells]}
		slab = slab[cells:]
		for c := range row.Cells {
			l := binary.BigEndian.Uint32(data)
			row.Cells[c] = data[4 : 4+l : 4+l]
			data = data[4+l:]
		}
		rows[i] = row
	}
	return rows, nil
}

// countPageCells checks that data holds exactly n encoded rows and returns
// their total cell count.
func countPageCells(data []byte, n uint32) (int, error) {
	total := 0
	for i := uint32(0); i < n; i++ {
		if len(data) < 12 {
			return 0, fmt.Errorf("%w: truncated page row", ErrBadRequest)
		}
		cells := binary.BigEndian.Uint32(data[8:])
		data = data[12:]
		for c := uint32(0); c < cells; c++ {
			if len(data) < 4 {
				return 0, fmt.Errorf("%w: truncated page cell", ErrBadRequest)
			}
			l := binary.BigEndian.Uint32(data)
			data = data[4:]
			if uint64(len(data)) < uint64(l) {
				return 0, fmt.Errorf("%w: truncated page cell payload", ErrBadRequest)
			}
			data = data[l:]
		}
		total += int(cells)
	}
	if len(data) != 0 {
		return 0, fmt.Errorf("%w: trailing bytes after page rows", ErrBadRequest)
	}
	return total, nil
}

// page is the resident (decoded) form of one heap page: rows ascending by
// id. Rows slices are mutated only under the store's exclusive lock; cell
// byte arrays are never mutated at all.
type page struct {
	rows []proto.Row
}

// pageMeta is the directory entry for one page, resident or not. Residency
// fields (res, elem, dirty, epoch, version) are guarded by the store's page
// cache mutex; span fields (firstID..bytes) additionally change only under
// the store's exclusive lock.
type pageMeta struct {
	heap *rowHeap
	id   uint64

	// firstID/lastID are the exact bounds of the rows the page holds,
	// count the row count, bytes the exact encoded payload size.
	firstID, lastID uint64
	count           int
	bytes           int

	// version increments on every mutation; the checkpointer uses it to
	// detect pages mutated while a checkpoint was writing them out.
	version uint64
	// epoch names the newest on-disk file holding this page (0 = none).
	// durableEpoch names the file the durable manifest references. They
	// diverge when a dirty page is evicted (runtime file newer than the
	// manifest) or a checkpoint races mutations.
	epoch        uint64
	durableEpoch uint64
	// dirty: resident content is newer than the epoch file. dirtyCkpt:
	// content (or the runtime file) is newer than the manifest.
	dirty     bool
	dirtyCkpt bool

	res  *page
	elem *lruElem
}

// rowHeap is one table's paged row storage: a directory of pages partitioned
// by row-id span, ascending and disjoint. All methods require the caller to
// hold the store lock (shared for reads, exclusive for mutations); page
// residency is managed through the store's shared cache.
type rowHeap struct {
	s          *Store
	tableID    uint64
	nextPageID uint64
	pages      []*pageMeta
	count      int
}

// findPage returns the index of the last page whose firstID <= id, or -1.
func (h *rowHeap) findPage(id uint64) int {
	lo, hi := 0, len(h.pages)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.pages[mid].firstID <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// findRow returns the position of id in rows and whether it is present;
// when absent, the position is the insertion point.
func findRow(rows []proto.Row, id uint64) (int, bool) {
	i := sort.Search(len(rows), func(i int) bool { return rows[i].ID >= id })
	return i, i < len(rows) && rows[i].ID == id
}

// get returns the row with the given id. The row's cells alias the resident
// page; see the immutability invariant on copyRow.
func (h *rowHeap) get(id uint64) (proto.Row, bool, error) {
	idx := h.findPage(id)
	if idx < 0 {
		return proto.Row{}, false, nil
	}
	pm := h.pages[idx]
	if id > pm.lastID {
		return proto.Row{}, false, nil
	}
	p, err := h.s.cache.acquire(pm)
	if err != nil {
		return proto.Row{}, false, err
	}
	i, ok := findRow(p.rows, id)
	if !ok {
		return proto.Row{}, false, nil
	}
	return p.rows[i], true, nil
}

// insert places a row (already validated and deep-copied by the caller)
// into the page covering its id span, extending an edge page when the id
// falls outside every span, and splits the page if it outgrew the target
// size. Returns ErrDuplicateRow if the id is already present.
func (h *rowHeap) insert(row proto.Row) error {
	sz := encodedRowSize(row)
	if len(h.pages) == 0 {
		pm := h.newPage()
		pm.firstID, pm.lastID = row.ID, row.ID
		pm.count = 1
		pm.bytes = pageHeaderBytes + sz
		pm.res = &page{rows: []proto.Row{row}}
		h.pages = append(h.pages, pm)
		h.count++
		return h.s.cache.admit(pm)
	}
	idx := h.findPage(row.ID)
	if idx < 0 {
		idx = 0
	}
	pm := h.pages[idx]
	p, err := h.s.cache.acquire(pm)
	if err != nil {
		return err
	}
	i, ok := findRow(p.rows, row.ID)
	if ok {
		return fmt.Errorf("%w: %d", ErrDuplicateRow, row.ID)
	}
	p.rows = append(p.rows, proto.Row{})
	copy(p.rows[i+1:], p.rows[i:])
	p.rows[i] = row
	pm.count++
	h.count++
	if row.ID < pm.firstID {
		pm.firstID = row.ID
	}
	if row.ID > pm.lastID {
		pm.lastID = row.ID
	}
	if err := h.s.cache.mutated(pm, sz); err != nil {
		return err
	}
	return h.maybeSplit(idx)
}

// replace swaps an existing row's content (the caller verified existence).
func (h *rowHeap) replace(row proto.Row) error {
	idx := h.findPage(row.ID)
	if idx < 0 {
		return fmt.Errorf("%w: %d", ErrNoSuchRow, row.ID)
	}
	pm := h.pages[idx]
	p, err := h.s.cache.acquire(pm)
	if err != nil {
		return err
	}
	i, ok := findRow(p.rows, row.ID)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchRow, row.ID)
	}
	delta := encodedRowSize(row) - encodedRowSize(p.rows[i])
	p.rows[i] = row
	if err := h.s.cache.mutated(pm, delta); err != nil {
		return err
	}
	return h.maybeSplit(idx)
}

// delete removes a row if present, dropping the page when it empties.
func (h *rowHeap) delete(id uint64) (bool, error) {
	idx := h.findPage(id)
	if idx < 0 {
		return false, nil
	}
	pm := h.pages[idx]
	if id > pm.lastID {
		return false, nil
	}
	p, err := h.s.cache.acquire(pm)
	if err != nil {
		return false, err
	}
	i, ok := findRow(p.rows, id)
	if !ok {
		return false, nil
	}
	sz := encodedRowSize(p.rows[i])
	p.rows = append(p.rows[:i], p.rows[i+1:]...)
	pm.count--
	h.count--
	if pm.count == 0 {
		h.dropPageAt(idx)
		return true, nil
	}
	pm.firstID = p.rows[0].ID
	pm.lastID = p.rows[len(p.rows)-1].ID
	return true, h.s.cache.mutated(pm, -sz)
}

// maybeSplit splits the page at idx when its encoded size exceeds the
// store's page target. The left half keeps the page id (and its on-disk
// history); the right half is a fresh page, dirty from birth. Splitting is
// a runtime-only reshaping: recovery rebuilds the directory from the
// manifest and replays the WAL, so it never observes the split itself.
func (h *rowHeap) maybeSplit(idx int) error {
	pm := h.pages[idx]
	if pm.bytes <= h.s.opts.PageBytes || pm.count < 2 {
		return nil
	}
	rows := pm.res.rows
	half := (pm.bytes - pageHeaderBytes) / 2
	acc, cut := 0, 0
	for i := 0; i < len(rows)-1; i++ {
		acc += encodedRowSize(rows[i])
		if acc >= half {
			cut = i + 1
			break
		}
	}
	if cut == 0 {
		cut = len(rows) / 2
	}
	if cut <= 0 || cut >= len(rows) {
		return nil
	}
	right := append([]proto.Row(nil), rows[cut:]...)
	left := rows[:cut:cut]
	rightBytes := pageHeaderBytes
	for _, r := range right {
		rightBytes += encodedRowSize(r)
	}
	leftDelta := pageHeaderBytes - rightBytes // mutated applies it to pm.bytes
	pm.res.rows = left
	pm.count = len(left)
	pm.firstID = left[0].ID
	pm.lastID = left[len(left)-1].ID

	p2 := h.newPage()
	p2.res = &page{rows: right}
	p2.count = len(right)
	p2.firstID = right[0].ID
	p2.lastID = right[len(right)-1].ID
	p2.bytes = rightBytes
	h.pages = append(h.pages, nil)
	copy(h.pages[idx+2:], h.pages[idx+1:])
	h.pages[idx+1] = p2
	if err := h.s.cache.mutated(pm, leftDelta); err != nil {
		return err
	}
	return h.s.cache.admit(p2)
}

func (h *rowHeap) newPage() *pageMeta {
	pm := &pageMeta{heap: h, id: h.nextPageID}
	h.nextPageID++
	return pm
}

// dropPageAt removes the page from the directory and schedules its files
// for deletion after the next checkpoint (an in-flight checkpoint may be
// promoting the runtime file into the manifest right now, so nothing is
// unlinked eagerly).
func (h *rowHeap) dropPageAt(idx int) {
	pm := h.pages[idx]
	h.pages = append(h.pages[:idx], h.pages[idx+1:]...)
	h.s.cache.forget(pm)
}

// drop releases every page of the heap (table drop).
func (h *rowHeap) drop() {
	for _, pm := range h.pages {
		h.s.cache.forget(pm)
	}
	h.pages = nil
	h.count = 0
}

// ascendPages iterates resident pages in id order, loading each on demand.
// With hasAfter, iteration starts at the first row with id > afterID. The
// callback's rows slice aliases page storage and is only valid until the
// store lock is released; return false to stop.
func (h *rowHeap) ascendPages(afterID uint64, hasAfter bool, fn func(rows []proto.Row) (bool, error)) error {
	idx := 0
	if hasAfter {
		idx = h.findPage(afterID)
		if idx < 0 {
			idx = 0
		} else if h.pages[idx].lastID <= afterID {
			idx++
		}
	}
	for ; idx < len(h.pages); idx++ {
		pm := h.pages[idx]
		p, err := h.s.cache.acquire(pm)
		if err != nil {
			return err
		}
		rows := p.rows
		if hasAfter && len(rows) > 0 && rows[0].ID <= afterID {
			i := sort.Search(len(rows), func(i int) bool { return rows[i].ID > afterID })
			rows = rows[i:]
		}
		if len(rows) == 0 {
			continue
		}
		cont, err := fn(rows)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}

// allIDs returns every row id in ascending order, capped at limit (0 =
// unlimited). Ids are 8 bytes per row, so even a bigger-than-RAM table's id
// vector fits; cells are not materialized.
func (h *rowHeap) allIDs(limit uint64) ([]uint64, error) {
	ids := make([]uint64, 0, h.count)
	err := h.ascendPages(0, false, func(rows []proto.Row) (bool, error) {
		for _, r := range rows {
			ids = append(ids, r.ID)
			if limit > 0 && uint64(len(ids)) == limit {
				return false, nil
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}
