package services

import (
	"encoding/binary"
	"fmt"
	"sync"
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

// rowScratch holds the buffers walkColumnarPage transposes pages into.
var rowScratch = sync.Pool{New: func() any { return new([]byte) }}

// walkColumnarPage adapts a columnar page to the record-at-a-time walk: the
// page is transposed back to records once, column by column, into a reused
// buffer, and each record is handed to fn. This is the compatibility path
// that lets every row-API consumer (joins, FetchSet, replica builds, the
// proxy scan) read columnar sets unchanged; rec is only valid for the
// duration of the callback, the same contract as row pages.
func walkColumnarPage(buf []byte, fn func(rec []byte) error) error {
	var p ColumnarPage
	if err := p.Reset(buf); err != nil {
		return err
	}
	scratch := rowScratch.Get().(*[]byte)
	defer rowScratch.Put(scratch)
	rows := p.rows(*scratch, 0)
	*scratch = rows
	rs := p.rowSize
	for off := 0; off < len(rows); off += rs {
		if err := fn(rows[off : off+rs : off+rs]); err != nil {
			return err
		}
	}
	return nil
}

// rows transposes every row of the page back to record form into dst,
// grown as needed, and returns it: one pass a column, each value stored by
// a switch on the column's width. Each record follows hdr bytes: 0, or
// recHeaderSize for the record's frame header, which rows writes.
func (p *ColumnarPage) rows(dst []byte, hdr int) []byte {
	n, rs := p.nrows, hdr+p.rowSize
	if cap(dst) < n*rs {
		dst = make([]byte, n*rs)
	}
	dst = dst[:n*rs]
	le, off := binary.LittleEndian, hdr
	if hdr > 0 {
		for i := range n {
			le.PutUint32(dst[i*rs:], uint32(p.rowSize))
		}
	}
	for c, w := range p.widths {
		col := p.Col(c)
		switch w {
		case 1:
			for i := range n {
				dst[i*rs+off] = col[i]
			}
		case 2:
			for i := range n {
				le.PutUint16(dst[i*rs+off:], le.Uint16(col[i*2:]))
			}
		case 4:
			for i := range n {
				le.PutUint32(dst[i*rs+off:], le.Uint32(col[i*4:]))
			}
		case 8:
			for i := range n {
				le.PutUint64(dst[i*rs+off:], le.Uint64(col[i*8:]))
			}
		default:
			for i := range n {
				copy(dst[i*rs+off:i*rs+off+w], col[i*w:])
			}
		}
		off += w
	}
	return dst
}
