package services

import (
	"encoding/binary"
	"fmt"

	"pangea/internal/core"
)

// A PageSource hands a RecordWriter the pages it fills, one at a time, and
// takes each back when it is full or the writer closes: the set's own
// NewPage and Unpin (SeqWriter), a shuffle partition's small pages
// (VirtualShuffleBuffer), or a storage process pinning pages for a data proxy.
type PageSource interface {
	// NewPage pins a fresh page and returns its bytes.
	NewPage() ([]byte, error)
	// Release unpins, dirty, the page NewPage returned last.
	Release() error
}

// RecordWriter is the one append loop under every write service (§5, §8):
// records go into the open page until one does not fit, then the page is
// released to its source and the next one taken. It writes one of
// two formats: a row region — a fresh page it stamps as one region, or a
// small page cut from a page its source has already formatted — or a
// columnar page, each fixed-width record transposed into the page's column
// segments. One writer per thread.
type RecordWriter struct {
	src    PageSource
	widths []int // a columnar page's column widths; nil writes rows
	small  bool  // the source hands out small pages of pages it formatted
	size   int   // a row region's bytes, or a columnar row's

	page     []byte // the open page, or small page; nil when none is open
	off, end int    // rows: the next record's offset, the region's end; columnar: rows stored, capacity
	segs     [][]byte
	n        int64
}

// NewRecordWriter returns a writer of the set's own layout over pages of the
// set that src pins. The set's columnar invariants (widths present, one row
// fits) were validated by core.CreateSet.
func NewRecordWriter(set *core.LocalitySet, src PageSource) *RecordWriter {
	w := &RecordWriter{src: src, size: int(set.PageSize()) - pageHeaderSize}
	if set.Layout() == core.LayoutColumnar {
		w.widths, w.size = set.ColumnWidths(), 0
		for _, cw := range w.widths {
			w.size += cw
		}
		w.segs = make([][]byte, len(w.widths))
	}
	return w
}

// Add appends one record, releasing the open page and taking the next when
// it does not fit. A columnar record must be exactly a row. A row record must
// fit a region with its header and must not be empty: a zero length ends a
// region's records, so an empty record would hide itself and every record
// after it from readers.
func (w *RecordWriter) Add(rec []byte) error {
	if w.widths == nil {
		if n := len(rec); n == 0 || n+recHeaderSize > w.size {
			return fmt.Errorf("services: record of %d bytes is empty or does not fit a %d-byte region", n, w.size)
		}
		for {
			if w.page != nil {
				if next, ok := appendRecord(w.page, w.off, w.end, rec); ok {
					w.off = next
					w.n++
					return nil
				}
			}
			if err := w.next(); err != nil {
				return err
			}
		}
	}
	if len(rec) != w.size {
		return fmt.Errorf("services: record of %d bytes does not match the %d-byte columnar row", len(rec), w.size)
	}
	if w.page == nil || w.off == w.end {
		if err := w.next(); err != nil {
			return err
		}
	}
	// One store a column, sized by a switch on its width: a copy call a
	// column costs more than the bytes it moves.
	le, off, i := binary.LittleEndian, 0, w.off
	for c, cw := range w.widths {
		seg := w.segs[c]
		switch cw {
		case 1:
			seg[i] = rec[off]
		case 2:
			le.PutUint16(seg[i*2:], le.Uint16(rec[off:]))
		case 4:
			le.PutUint32(seg[i*4:], le.Uint32(rec[off:]))
		case 8:
			le.PutUint64(seg[i*8:], le.Uint64(rec[off:]))
		default:
			copy(seg[i*cw:], rec[off:off+cw])
		}
		off += cw
	}
	w.off++
	w.n++
	le.PutUint32(w.page[8:12], uint32(w.off)) // the row count stays current
	return nil
}

// next releases the open page, if any, then takes a fresh one
// from the source and formats it.
func (w *RecordWriter) next() error {
	if err := w.Close(); err != nil {
		return err
	}
	page, err := w.src.NewPage()
	if err != nil {
		return err
	}
	w.page = page
	switch {
	case w.widths != nil:
		off := columnarHeaderSize(len(w.widths))
		rows := (len(page) - off) / w.size
		initColumnarPage(page, w.widths, rows)
		for c, cw := range w.widths {
			w.segs[c] = page[off : off+rows*cw]
			off += rows * cw
		}
		w.off, w.end = 0, rows
	case w.small:
		w.off, w.end = 0, len(page)
	default:
		initPage(page, w.size)
		w.off, w.end = pageHeaderSize, len(page)
	}
	return nil
}

// Count returns the number of records written so far.
func (w *RecordWriter) Count() int64 { return w.n }

// Close releases the open page, if any.
func (w *RecordWriter) Close() error {
	if w.page == nil {
		return nil
	}
	w.page = nil
	return w.src.Release()
}

// compact lays the open page out to end at its last record and returns that
// length rounded up to 16 bytes, the allocator's grain. A row page is left as
// it is: its one region ends where the page's bytes do (pageRegionSize), and
// the terminator after the last record, where one fits, is already written.
// A columnar page's segments move down to the rows stored, and its capacity
// becomes that row count. Either stays a page every reader walks, at that
// length or padded with zeros to the full page size.
func (w *RecordWriter) compact() int {
	if w.widths == nil {
		return min((w.off+15)&^15, len(w.page))
	}
	rows, off := w.off, columnarHeaderSize(len(w.widths))
	for c, cw := range w.widths {
		// A segment only moves down, never over a later one's rows.
		off += copy(w.page[off:], w.segs[c][:rows*cw])
	}
	binary.LittleEndian.PutUint32(w.page[12:16], uint32(rows))
	return min((off+15)&^15, len(w.page))
}
