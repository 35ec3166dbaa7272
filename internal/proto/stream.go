package proto

// Wire-size helpers: the transport layer uses RowWireSize to split large
// row responses into bounded stream chunks without encoding twice, and
// Encode uses the rest to size its buffer once for row-bearing messages.

// uvarintSize returns the encoded length of v as a uvarint.
func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func bytesWireSize(b []byte) int { return uvarintSize(uint64(len(b))) + len(b) }

func strWireSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

func stringsWireSize(ss []string) int {
	n := uvarintSize(uint64(len(ss)))
	for _, s := range ss {
		n += strWireSize(s)
	}
	return n
}

func byteSlicesWireSize(bs [][]byte) int {
	n := uvarintSize(uint64(len(bs)))
	for _, b := range bs {
		n += bytesWireSize(b)
	}
	return n
}

func rowsWireSize(rows []Row) int {
	n := uvarintSize(uint64(len(rows)))
	for _, r := range rows {
		n += RowWireSize(r)
	}
	return n
}

// RowWireSize returns the exact number of bytes one Row occupies inside an
// encoded message (id + cell count + length-prefixed cells).
func RowWireSize(r Row) int {
	n := uvarintSize(r.ID) + uvarintSize(uint64(len(r.Cells)))
	for _, c := range r.Cells {
		n += bytesWireSize(c)
	}
	return n
}

// MergeRowsChunk folds one streamed RowsResponse chunk into an accumulated
// response: rows append in arrival order, Columns come from the first
// chunk that carries any, and the completeness Proof rides whichever chunk
// carries it (the last, under the v2 streaming protocol). A nil dst starts
// from chunk.
func MergeRowsChunk(dst, chunk *RowsResponse) *RowsResponse {
	if dst == nil {
		return chunk
	}
	dst.Rows = append(dst.Rows, chunk.Rows...)
	if len(dst.Columns) == 0 && len(chunk.Columns) > 0 {
		dst.Columns = chunk.Columns
	}
	if len(chunk.Proof) > 0 {
		dst.Proof = chunk.Proof
	}
	return dst
}
