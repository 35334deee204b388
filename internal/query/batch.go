package query

import (
	"encoding/binary"
	"math"
	"slices"

	"pangea/internal/services"
)

// Batch is the engine's one substrate: a page worth of rows presented
// column-at-a-time — contiguous fixed-width column vectors plus a selection
// index vector that predicates and joins narrow (late materialization: rows
// are only reassembled at sinks, and only for selected lanes).
//
// A batch comes from one of three places, and operators cannot tell which:
//
//   - a columnar page: the vectors are zero-copy views of the pinned page;
//   - a row page: one framing walk records where each record starts, and a
//     column the plan touches is gathered on first use into a vector the
//     scan thread reuses page after page (columns it never touches cost
//     nothing); lanes of records too short to hold the column read as zero;
//   - a hash join's output (Join.Inner): vectors the batch owns.
//
// Either way the vectors are invalid once the scan moves past the page.
type Batch struct {
	n      int
	widths []int    // byte width of each column
	cols   [][]byte // column vectors; a row page's nil entry is gathered on first use
	store  [][]byte // backing of gathered and joined columns, reused across pages

	// Row pages only: the pinned page, each record's payload offset, the
	// layout Col gathers by with the bytes a record needs to hold all of it,
	// and the length of the page's shortest record.
	buf    []byte
	offs   []int32
	schema []services.ColumnSpec
	extent int
	minLen int

	page services.ColumnarPage // columnar header parser, reused across pages

	sel    []int32     // selected row indices; nil = all n rows selected
	selBuf []int32     // reused selection storage across pages
	spare  [][]int32   // idle scratch vectors (Or's branches)
	u      [2][]uint64 // SelLess's lane values
	rowBuf []byte      // reused MaterializeRow scratch

	// Join output only (see Join.Inner): matched build records and their
	// gathered payloads.
	recs []int32
	pay  []byte
	gs   services.GatherScratch
}

// reset points the batch at a new page buffer and selects every row. schema
// is the record layout of a row page; columnar pages describe themselves.
func (b *Batch) reset(buf []byte, schema []services.ColumnSpec) error {
	b.sel = nil
	if services.IsColumnarPage(buf) {
		if err := b.page.Reset(buf); err != nil {
			return err
		}
		b.buf, b.n = nil, b.page.NumRows()
		b.shape(b.page.NumCols())
		for c := range b.cols {
			b.widths[c], b.cols[c] = b.page.Width(c), b.page.Col(c)
		}
		return nil
	}
	offs, minLen, err := services.RecordOffsets(buf, b.offs[:0])
	b.offs = offs
	if err != nil {
		return err
	}
	b.buf, b.schema, b.minLen, b.n = buf, schema, minLen, len(offs)
	b.shape(len(schema))
	b.extent = 0
	for c, spec := range schema {
		b.widths[c], b.cols[c] = spec.Width, nil
		b.extent = max(b.extent, spec.Offset+spec.Width)
	}
	return nil
}

// shape sizes the per-column slices for ncols columns, keeping their storage.
func (b *Batch) shape(ncols int) {
	if cap(b.cols) < ncols {
		b.cols, b.widths = make([][]byte, ncols), make([]int, ncols)
		b.store = append(b.store, make([][]byte, ncols-len(b.store))...)
	}
	b.cols, b.widths = b.cols[:ncols], b.widths[:ncols]
}

// NumRows returns the page's row count, before selection.
func (b *Batch) NumRows() int { return b.n }

// NumCols returns the number of columns.
func (b *Batch) NumCols() int { return len(b.widths) }

// Width returns the byte width of column c.
func (b *Batch) Width(c int) int { return b.widths[c] }

// Col returns column c's full vector (NumRows values, selection not
// applied), contiguous whatever the page's layout.
func (b *Batch) Col(c int) []byte {
	if v := b.cols[c]; v != nil || b.buf == nil {
		return v
	}
	return b.gather(c)
}

// gather transposes column c of a row page into its reused vector.
func (b *Batch) gather(c int) []byte {
	w, off := b.widths[c], b.schema[c].Offset
	v := grow(b.store[c], b.n*w)
	b.store[c], b.cols[c] = v, v
	buf, le := b.buf, binary.LittleEndian
	if b.minLen < off+w {
		// Ragged page: lanes of records that end before the column read zero.
		for i, o := range b.offs {
			if lane := v[i*w : i*w+w]; services.RecordLen(buf, o) >= off+w {
				copy(lane, buf[int(o)+off:])
			} else {
				clear(lane)
			}
		}
		return v
	}
	switch w {
	case 1:
		for i, o := range b.offs {
			v[i] = buf[int(o)+off]
		}
	case 2:
		for i, o := range b.offs {
			le.PutUint16(v[i*2:], le.Uint16(buf[int(o)+off:]))
		}
	case 4:
		for i, o := range b.offs {
			le.PutUint32(v[i*4:], le.Uint32(buf[int(o)+off:]))
		}
	case 8:
		for i, o := range b.offs {
			le.PutUint64(v[i*8:], le.Uint64(buf[int(o)+off:]))
		}
	default:
		for i, o := range b.offs {
			copy(v[i*w:i*w+w], buf[int(o)+off:])
		}
	}
	return v
}

// dropShort deselects the records of a row page that are too short to hold
// every schema column: no predicate matches them.
func (b *Batch) dropShort() {
	if b.buf != nil && b.minLen < b.extent {
		b.narrow(func(i int32) bool { return services.RecordLen(b.buf, b.offs[i]) >= b.extent })
	}
}

// seedLanes starts a fresh batch's selection from the lanes a point index's
// answer (see PointIndex) names on page num: the only rows it says may match.
// Without an answer, or on a page the answer scans whole, every row stays
// selected. Lanes past the page's rows select nothing.
func (b *Batch) seedLanes(locs []uint64, num int64) {
	i, _ := slices.BinarySearch(locs, uint64(num)<<32)
	j, all := slices.BinarySearch(locs, uint64(num)<<32|services.LaneAll)
	if locs == nil || all {
		return
	}
	sel := b.selOut()[:0]
	for _, loc := range locs[i:j] {
		if lane := uint64(uint32(loc)); lane < uint64(b.n) {
			sel = append(sel, int32(lane))
		}
	}
	b.sel = sel
}

// Selected returns how many rows the current selection keeps.
func (b *Batch) Selected() int {
	if b.sel == nil {
		return b.n
	}
	return len(b.sel)
}

// Sel returns the selected row indices, materializing the all-rows
// selection if no predicate has run yet. The slice is reused across pages.
func (b *Batch) Sel() []int32 {
	if b.sel == nil {
		b.selBuf = grow(b.selBuf, b.n)
		for i := range b.selBuf {
			b.selBuf[i] = int32(i)
		}
		b.sel = b.selBuf
	}
	return b.sel
}

// Typed lane accessors; row is a row index (typically drawn from Sel).

func (b *Batch) Byte(c, row int) byte { return b.Col(c)[row] }

func (b *Batch) U16(c, row int) uint16 {
	return binary.LittleEndian.Uint16(b.Col(c)[row*2:])
}

func (b *Batch) U32(c, row int) uint32 {
	return binary.LittleEndian.Uint32(b.Col(c)[row*4:])
}

func (b *Batch) U64(c, row int) uint64 {
	return binary.LittleEndian.Uint64(b.Col(c)[row*8:])
}

func (b *Batch) F64(c, row int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.Col(c)[row*8:]))
}

// MaterializeRow returns one row in record form, appended to dst — the
// late-materialization sink, paid only for rows that survived selection. On
// a row page that is the stored record itself; elsewhere the concatenation
// of the row's column values. With dst nil the result aliases the pinned
// page or a scratch buffer the batch owns, overwritten by the next call.
func (b *Batch) MaterializeRow(row int, dst []byte) []byte {
	if b.buf != nil {
		o := b.offs[row]
		rec := b.buf[o : int(o)+services.RecordLen(b.buf, o)]
		if dst == nil {
			return rec
		}
		return append(dst, rec...)
	}
	own := dst == nil
	if own {
		dst = b.rowBuf[:0]
	}
	for c, w := range b.widths {
		dst = append(dst, b.cols[c][row*w:row*w+w]...)
	}
	if own {
		b.rowBuf = dst
	}
	return dst
}

// grow returns s resized to n elements, reallocating when it is too small.
// The result is never nil, so a zero-row selection built from it is not
// "all".
func grow[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scratch borrows an n-lane vector from the batch's idle list; release
// returns it.
func (b *Batch) scratch(n int) []int32 {
	if k := len(b.spare); k > 0 {
		s := b.spare[k-1]
		b.spare = b.spare[:k-1]
		return grow(s, n)
	}
	return make([]int32, n)
}

func (b *Batch) release(s []int32) { b.spare = append(b.spare, s) }

// narrow runs keep over the current selection and installs the surviving
// indices as the new selection. The survivors are written into the batch's
// reused selection buffer; writing lane j always trails reading lane i
// (j ≤ i), so narrowing in place over the previous selection is safe.
func (b *Batch) narrow(keep func(row int32) bool) {
	out, k := b.selOut(), 0
	if b.sel != nil {
		for _, i := range b.sel {
			out[k] = i
			k += b2i(keep(i))
		}
	} else {
		for i := range int32(b.n) {
			out[k] = i
			k += b2i(keep(i))
		}
	}
	b.sel = out[:k]
}

// FilterBatch narrows the selection with an arbitrary row predicate — the
// generic kernel, for the shapes the algebra does not express (cross-column
// comparisons); the typed Sel* kernels below are the fast paths for common
// fixed-width comparisons, each a branch-free loop over one column vector.
func FilterBatch(b *Batch, pred func(b *Batch, row int) bool) {
	b.narrow(func(i int32) bool { return pred(b, int(i)) })
}

// The typed Sel* kernels below spell their loops out instead of going
// through narrow: the per-row indirect call a closure costs is the
// difference between a tight compare loop and a row-at-a-time dispatch, and
// these kernels sit on the hot path of every selective scan. No loop
// branches on the data: every candidate lane's index is written to the
// output and the output advances by the comparison's outcome, 0 or 1, so a
// page that keeps half its rows costs what one that keeps none does. A
// half-open range lo <= v < hi is the one unsigned compare v-lo < hi-lo
// (lanes below lo wrap past the span), and an empty one (hi <= lo) is an
// explicit empty selection. Each kernel re-slices its column once, to the
// rows it reads; SelU16Range reads four lanes per 8-byte load, and an
// 8-byte equality (hi == lo+1, what ColEq compiles to) skips 8-lane blocks
// that hold no match behind one predictable branch. On the narrowed path
// the survivors overwrite the prior selection in place: lane j is written
// only after lane i >= j was read.

// le is the byte order of column vectors.
var le = binary.LittleEndian

// b2i is a comparison's outcome as 0 or 1, set from the flags, not branched
// on.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selOut returns the vector a kernel writes its survivors into: the prior
// selection, narrowed in place, or the batch's reused buffer sized for every
// row. It is never nil, so an empty result selects nothing, not everything.
func (b *Batch) selOut() []int32 {
	if b.sel != nil {
		return b.sel
	}
	b.selBuf = grow(b.selBuf, b.n)
	return b.selBuf
}

// SelU16Range keeps rows with lo <= col[row] < hi.
func (b *Batch) SelU16Range(c int, lo, hi uint16) {
	out, k, n := b.selOut(), 0, b.n
	if hi > lo {
		col, span := b.Col(c)[:2*n], hi-lo
		if b.sel != nil {
			for _, i := range b.sel {
				out[k] = i
				k += b2i(le.Uint16(col[2*int(i):])-lo < span)
			}
		} else {
			i := 0
			for ; i+4 <= n; i += 4 {
				w := le.Uint64(col[2*i:])
				out[k] = int32(i)
				k += b2i(uint16(w)-lo < span)
				out[k] = int32(i + 1)
				k += b2i(uint16(w>>16)-lo < span)
				out[k] = int32(i + 2)
				k += b2i(uint16(w>>32)-lo < span)
				out[k] = int32(i + 3)
				k += b2i(uint16(w>>48)-lo < span)
			}
			for ; i < n; i++ {
				out[k] = int32(i)
				k += b2i(le.Uint16(col[2*i:])-lo < span)
			}
		}
	}
	b.sel = out[:k]
}

// SelU32Range keeps rows with lo <= col[row] < hi.
func (b *Batch) SelU32Range(c int, lo, hi uint32) {
	out, k, n := b.selOut(), 0, b.n
	if hi > lo {
		col, span := b.Col(c)[:4*n], hi-lo
		if b.sel != nil {
			for _, i := range b.sel {
				out[k] = i
				k += b2i(le.Uint32(col[4*int(i):])-lo < span)
			}
		} else {
			for i := 0; i < n; i++ {
				out[k] = int32(i)
				k += b2i(le.Uint32(col[4*i:])-lo < span)
			}
		}
	}
	b.sel = out[:k]
}

// SelF64Range keeps rows with lo <= col[row] <= hi (closed interval, the
// shape of TPC-H's discount band predicate). NaN lanes never match.
func (b *Batch) SelF64Range(c int, lo, hi float64) {
	out, k, n := b.selOut(), 0, b.n
	col := b.Col(c)[:8*n]
	if b.sel != nil {
		for _, i := range b.sel {
			v := math.Float64frombits(le.Uint64(col[8*int(i):]))
			out[k] = i
			k += b2i(lo <= v) & b2i(v <= hi)
		}
	} else {
		for i := 0; i < n; i++ {
			v := math.Float64frombits(le.Uint64(col[8*i:]))
			out[k] = int32(i)
			k += b2i(lo <= v) & b2i(v <= hi)
		}
	}
	b.sel = out[:k]
}

// SelU64Range keeps rows with lo <= col[row] < hi.
func (b *Batch) SelU64Range(c int, lo, hi uint64) {
	out, k, n := b.selOut(), 0, b.n
	if hi > lo {
		col, span := b.Col(c)[:8*n], hi-lo
		if b.sel != nil {
			for _, i := range b.sel {
				out[k] = i
				k += b2i(le.Uint64(col[8*int(i):])-lo < span)
			}
		} else {
			i := 0
			if span == 1 {
				// Equality: a block with no match costs its loads and one
				// branch that is almost never taken.
				for ; i+8 <= n; i += 8 {
					blk := (*[64]byte)(col[8*i:])
					if b2i(le.Uint64(blk[0:]) == lo)|b2i(le.Uint64(blk[8:]) == lo)|
						b2i(le.Uint64(blk[16:]) == lo)|b2i(le.Uint64(blk[24:]) == lo)|
						b2i(le.Uint64(blk[32:]) == lo)|b2i(le.Uint64(blk[40:]) == lo)|
						b2i(le.Uint64(blk[48:]) == lo)|b2i(le.Uint64(blk[56:]) == lo) == 0 {
						continue
					}
					for j := 0; j < 8; j++ {
						out[k] = int32(i + j)
						k += b2i(le.Uint64(blk[8*j:]) == lo)
					}
				}
			}
			for ; i < n; i++ {
				out[k] = int32(i)
				k += b2i(le.Uint64(col[8*i:])-lo < span)
			}
		}
	}
	b.sel = out[:k]
}

// SelByteRange keeps rows with lo <= col[row] < hi over a 1-byte column.
// Bounds are uint64 — the predicate algebra's value domain — so hi=256
// still expresses a half-open interval covering the whole byte range.
func (b *Batch) SelByteRange(c int, lo, hi uint64) {
	out, k, n := b.selOut(), 0, b.n
	if hi > lo {
		col, span := b.Col(c)[:n], hi-lo
		if b.sel != nil {
			for _, i := range b.sel {
				out[k] = i
				k += b2i(uint64(col[i])-lo < span)
			}
		} else {
			for i, v := range col {
				out[k] = int32(i)
				k += b2i(uint64(v)-lo < span)
			}
		}
	}
	b.sel = out[:k]
}

// SelByteEq keeps rows whose 1-byte column equals v.
func (b *Batch) SelByteEq(c int, v byte) {
	out, k, n := b.selOut(), 0, b.n
	col := b.Col(c)[:n]
	if b.sel != nil {
		for _, i := range b.sel {
			out[k] = i
			k += b2i(col[i] == v)
		}
	} else {
		for i, x := range col {
			out[k] = int32(i)
			k += b2i(x == v)
		}
	}
	b.sel = out[:k]
}

// SelLess keeps rows whose column a is less than column c, both unsigned
// and of one width.
func (b *Batch) SelLess(a, c int) {
	sel := b.Sel()
	b.u[0], b.u[1] = b.lanes(a, sel, b.u[0]), b.lanes(c, sel, b.u[1])
	x, y, k := b.u[0], b.u[1][:len(sel)], 0
	for j, i := range sel {
		sel[k] = i
		k += b2i(x[j] < y[j])
	}
	b.sel = sel[:k]
}

// lanes reads column c's unsigned value on each lane of sel into dst.
func (b *Batch) lanes(c int, sel []int32, dst []uint64) []uint64 {
	dst, col := grow(dst, len(sel)), b.Col(c)
	switch b.Width(c) {
	case 1:
		for k, i := range sel {
			dst[k] = uint64(col[i])
		}
	case 2:
		for k, i := range sel {
			dst[k] = uint64(le.Uint16(col[2*i:]))
		}
	case 4:
		for k, i := range sel {
			dst[k] = uint64(le.Uint32(col[4*i:]))
		}
	default:
		for k, i := range sel {
			dst[k] = le.Uint64(col[8*i:])
		}
	}
	return dst
}

// ProjectBatch materializes the selected rows of a batch and feeds them to
// emit in record form — the bridge from the batch pipeline to row sinks,
// and all that ScanSpec.Run adds to RunBatches. Rows alias the pinned page
// or a scratch buffer reused per row, and are invalid after emit returns.
func ProjectBatch(b *Batch, emit func(Row) error) error {
	for _, i := range b.Sel() {
		if err := emit(b.MaterializeRow(int(i), nil)); err != nil {
			return err
		}
	}
	return nil
}
