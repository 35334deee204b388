package services

import (
	"encoding/binary"
	"fmt"

	"pangea/internal/core"
)

// Columnar pages store fixed-width records transposed into per-column
// segments, so a scan touches only the bytes of the columns it reads and a
// predicate runs as a tight loop over one contiguous vector (the batch
// operator API in internal/query is built on these views).
//
// Page layout (all integers little-endian):
//
//	[0:4)          u32 magic (columnarMagic, > 2^31 so it can never collide
//	               with a row page's regionSize, which is bounded by the
//	               page size)
//	[4:8)          u32 number of columns
//	[8:12)         u32 number of rows stored
//	[12:16)        u32 row capacity
//	[16:16+4*c)    u32 width of each column
//	[header:)      column segments, column j occupying capacity*width_j
//	               bytes starting at header + Σ_{k<j} capacity*width_k;
//	               trailing bytes that do not fit a whole row are unused
//
// The row count is kept current on every append, so a page is always
// self-describing: spill, reload, and the row-compatibility path (WalkPage)
// need no out-of-band state.

const (
	columnarMagic       = 0xC07C07C1
	columnarFixedHeader = 16
)

// ColumnSpec describes one fixed-width column of a columnar set: its name,
// byte width, and byte offset within the row-format record that Add
// transposes. Offsets normally follow from the widths (see MakeSchema).
type ColumnSpec struct {
	Name   string
	Width  int
	Offset int
}

// MakeSchema builds a schema descriptor from (name, width) pairs, assigning
// each column the offset its predecessors' widths imply — the layout of a
// packed fixed-width record.
func MakeSchema(names []string, widths []int) []ColumnSpec {
	if len(names) != len(widths) {
		panic(fmt.Sprintf("services: %d names for %d widths", len(names), len(widths)))
	}
	specs := make([]ColumnSpec, len(names))
	off := 0
	for i := range names {
		specs[i] = ColumnSpec{Name: names[i], Width: widths[i], Offset: off}
		off += widths[i]
	}
	return specs
}

// SchemaWidths projects a schema descriptor to the per-column widths that
// core.SetSpec.Columns wants.
func SchemaWidths(schema []ColumnSpec) []int {
	widths := make([]int, len(schema))
	for i, c := range schema {
		widths[i] = c.Width
	}
	return widths
}

// columnarHeaderSize is the page header size for ncols columns.
func columnarHeaderSize(ncols int) int { return columnarFixedHeader + 4*ncols }

// IsColumnarPage reports whether buf holds a columnar page. Row pages can
// never match: their leading u32 is a region size bounded by the page size,
// while the magic exceeds 2^31.
func IsColumnarPage(buf []byte) bool {
	return len(buf) >= columnarFixedHeader &&
		binary.LittleEndian.Uint32(buf[0:4]) == columnarMagic
}

// ColumnarPage is a decoded view over one columnar page buffer. Col returns
// zero-copy slices of the underlying (pinned) page: they alias the buffer
// pool's arena and are invalid once the page is released.
type ColumnarPage struct {
	buf     []byte
	widths  []int
	offs    []int // per-column segment start within buf
	nrows   int
	cap     int
	rowSize int
}

// OpenColumnarPage parses buf as a columnar page.
func OpenColumnarPage(buf []byte) (*ColumnarPage, error) {
	p := &ColumnarPage{}
	if err := p.Reset(buf); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset re-points the view at a new page buffer, reusing the view's width
// and offset slices when the column shape is unchanged — scan loops parse
// one page per iteration without allocating.
func (p *ColumnarPage) Reset(buf []byte) error {
	if !IsColumnarPage(buf) {
		return fmt.Errorf("services: not a columnar page (%d bytes)", len(buf))
	}
	le := binary.LittleEndian
	ncols := int(le.Uint32(buf[4:8]))
	nrows := int(le.Uint32(buf[8:12]))
	capacity := int(le.Uint32(buf[12:16]))
	hdr := columnarHeaderSize(ncols)
	if ncols <= 0 || len(buf) < hdr {
		return fmt.Errorf("services: columnar page header truncated (%d cols, %d bytes)", ncols, len(buf))
	}
	if cap(p.widths) < ncols {
		p.widths = make([]int, ncols)
		p.offs = make([]int, ncols)
	}
	p.widths, p.offs = p.widths[:ncols], p.offs[:ncols]
	rowSize, off := 0, hdr
	for c := 0; c < ncols; c++ {
		w := int(le.Uint32(buf[columnarFixedHeader+4*c : columnarFixedHeader+4*c+4]))
		if w <= 0 {
			return fmt.Errorf("services: columnar page column %d has width %d", c, w)
		}
		// capacity and w come off disk as full u32s, so their product can
		// wrap even int64 (it is < 2^64, so a wrap always lands negative);
		// bound each segment against the bytes that actually remain before
		// committing the offset.
		seg := int64(capacity) * int64(w)
		if seg < 0 || seg > int64(len(buf))-int64(off) {
			return fmt.Errorf("services: corrupt columnar page: column %d segment of %d*%d bytes at %d exceeds %d-byte page",
				c, capacity, w, off, len(buf))
		}
		p.widths[c], p.offs[c] = w, off
		rowSize += w
		off += int(seg)
	}
	if nrows > capacity {
		return fmt.Errorf("services: corrupt columnar page: %d rows in a %d-row page", nrows, capacity)
	}
	p.buf, p.nrows, p.cap, p.rowSize = buf, nrows, capacity, rowSize
	return nil
}

// NumRows returns the number of rows stored in the page.
func (p *ColumnarPage) NumRows() int { return p.nrows }

// NumCols returns the number of columns.
func (p *ColumnarPage) NumCols() int { return len(p.widths) }

// Width returns the byte width of column c.
func (p *ColumnarPage) Width(c int) int { return p.widths[c] }

// RowSize returns the byte size of one reconstructed row record.
func (p *ColumnarPage) RowSize() int { return p.rowSize }

// Col returns the stored values of column c as one contiguous slice of
// NumRows()*Width(c) bytes. The slice aliases the pinned page buffer.
func (p *ColumnarPage) Col(c int) []byte {
	return p.buf[p.offs[c] : p.offs[c]+p.nrows*p.widths[c]]
}

// AppendRow materializes row i back into record form (the concatenation of
// its column values) by appending to dst, and returns the extended slice.
// This is the late-materialization sink: sinks that need whole rows call it
// only for rows that survived selection.
func (p *ColumnarPage) AppendRow(dst []byte, i int) []byte {
	for c, w := range p.widths {
		off := p.offs[c] + i*w
		dst = append(dst, p.buf[off:off+w]...)
	}
	return dst
}

// initColumnarPage stamps the header of a fresh columnar page buffer.
func initColumnarPage(buf []byte, widths []int, capacity int) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:4], columnarMagic)
	le.PutUint32(buf[4:8], uint32(len(widths)))
	le.PutUint32(buf[8:12], 0)
	le.PutUint32(buf[12:16], uint32(capacity))
	for c, w := range widths {
		le.PutUint32(buf[columnarFixedHeader+4*c:columnarFixedHeader+4*c+4], uint32(w))
	}
}

// ColumnarWriter is the sequential write service for columnar sets: Add
// transposes each fixed-width record into the per-column segments of the
// current page and pins a fresh page when it fills. Like SeqWriter, one
// writer per thread. NewSeqWriter constructs one for sets declared
// LayoutColumnar, so callers of the row write API (WriteAll, the cluster's
// AddRecords path) transparently produce columnar pages.
type ColumnarWriter struct {
	set      *core.LocalitySet
	widths   []int
	rowSize  int
	capacity int // rows per page
	page     *core.Page
	segs     [][]byte // column segments of the current page
	view     ColumnarPage
	n        int   // rows in the current page
	total    int64 // records written

	// OnSeal, when set, is called with each page just before it is
	// unpinned, while its bytes are still valid — the hook the zone-map
	// roadmap item plugs per-column min/max extraction into.
	OnSeal func(pageNum int64, p *ColumnarPage)
}

// newColumnarWriter builds the writer NewSeqWriter delegates to; the set's
// columnar invariants (widths present, one row fits) were validated by
// core.CreateSet.
func newColumnarWriter(set *core.LocalitySet) *ColumnarWriter {
	widths := set.ColumnWidths()
	rowSize := 0
	for _, w := range widths {
		rowSize += w
	}
	return &ColumnarWriter{
		set:      set,
		widths:   widths,
		rowSize:  rowSize,
		capacity: (int(set.PageSize()) - columnarHeaderSize(len(widths))) / rowSize,
		segs:     make([][]byte, len(widths)),
	}
}

// Add appends one record, which must be exactly the schema's row size.
func (w *ColumnarWriter) Add(rec []byte) error {
	if len(rec) != w.rowSize {
		return fmt.Errorf("services: record of %d bytes does not match the %d-byte columnar row", len(rec), w.rowSize)
	}
	if w.page == nil {
		p, err := w.set.NewPage()
		if err != nil {
			return err
		}
		buf := p.Bytes()
		initColumnarPage(buf, w.widths, w.capacity)
		off := columnarHeaderSize(len(w.widths))
		for c, cw := range w.widths {
			w.segs[c] = buf[off : off+w.capacity*cw]
			off += w.capacity * cw
		}
		w.page, w.n = p, 0
	}
	off := 0
	for c, cw := range w.widths {
		copy(w.segs[c][w.n*cw:], rec[off:off+cw])
		off += cw
	}
	w.n++
	w.total++
	binary.LittleEndian.PutUint32(w.page.Bytes()[8:12], uint32(w.n))
	if w.n == w.capacity {
		return w.seal()
	}
	return nil
}

// seal finishes the current page: runs the OnSeal hook while the page is
// still pinned, then unpins it dirty.
func (w *ColumnarWriter) seal() error {
	if w.page == nil {
		return nil
	}
	if w.OnSeal != nil {
		if err := w.view.Reset(w.page.Bytes()); err != nil {
			return err
		}
		w.OnSeal(w.page.Num(), &w.view)
	}
	err := w.set.Unpin(w.page, true)
	w.page = nil
	for c := range w.segs {
		w.segs[c] = nil
	}
	return err
}

// Count returns the number of records written so far.
func (w *ColumnarWriter) Count() int64 { return w.total }

// RowSize returns the byte size of one record under the writer's schema.
func (w *ColumnarWriter) RowSize() int { return w.rowSize }

// Close seals the partial page and clears the set's current operation.
func (w *ColumnarWriter) Close() error {
	err := w.seal()
	w.set.SetCurrentOp(core.OpNone)
	return err
}

// walkColumnarPage adapts a columnar page to the record-at-a-time walk:
// each row is materialized into a reused scratch buffer and handed to fn.
// This is the compatibility path that lets every row-API consumer (joins,
// FetchSet, replica builds) read columnar sets unchanged; rec is only valid
// for the duration of the callback, the same contract as row pages.
func walkColumnarPage(buf []byte, fn func(rec []byte) error) error {
	p, err := OpenColumnarPage(buf)
	if err != nil {
		return err
	}
	scratch := make([]byte, 0, p.RowSize())
	for i := 0; i < p.NumRows(); i++ {
		if err := fn(p.AppendRow(scratch[:0], i)); err != nil {
			return err
		}
	}
	return nil
}
