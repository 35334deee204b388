// Package services implements the computational services Pangea pushes into
// the storage system (paper §8): the sequential read/write service, the
// shuffle service with its virtual shuffle buffers and small-page allocator,
// the hash service with page-local hash tables appended into their pages, and
// the join/broadcast map services. Each service stamps the attribute tags of
// the locality sets it touches, which is how the paging system learns access
// patterns at runtime (§3.2).
package services

import (
	"encoding/binary"
	"fmt"
)

// Service pages are divided into fixed-size regions, each holding a stream
// of length-prefixed records terminated by a zero length (or the region
// end). Sequential pages have a single region spanning the page; shuffle
// pages are split into small pages, one region each, so multiple writer
// threads can fill one buffer-pool page concurrently (§8).
//
// Page layout:
//
//	[0:4)  u32 regionSize
//	[4:8)  u32 reserved
//	[8:)   regions, each regionSize bytes. A sequential page's one region
//	       runs to the page end, a shrunk one's to the end of its bytes
//	       (pageRegionSize), and a shuffle page's small pages tile it
//	       (splitPage); at most a few alignment bytes trail the last one
//
// Record framing within a region: u32 length, then payload. Length 0 marks
// the end of the region's records.

const (
	pageHeaderSize = 8
	recHeaderSize  = 4
)

// initPage stamps the region size into a freshly allocated page buffer.
func initPage(buf []byte, regionSize int) {
	if regionSize < recHeaderSize+1 || regionSize > len(buf)-pageHeaderSize {
		panic(fmt.Sprintf("services: region size %d invalid for page of %d bytes", regionSize, len(buf)))
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(regionSize))
	binary.LittleEndian.PutUint32(buf[4:8], 0)
	// Zero the first record header of every region so readers see empty
	// regions rather than stale bytes from a recycled arena block.
	for off := pageHeaderSize; off+recHeaderSize <= len(buf) && off+regionSize <= len(buf); off += regionSize {
		binary.LittleEndian.PutUint32(buf[off:off+4], 0)
	}
}

// pageRegionSize reads the region size from a page buffer, cut to the bytes
// after the page header. A sealed sequential page that gave its empty tail
// back (SeqWriter.Close) keeps the full page's region size in its header, so
// its one region ends where the bytes it is read from do: the shrunk page's
// own, or the full frame it reloads into after a spill.
func pageRegionSize(buf []byte) int {
	return min(int(binary.LittleEndian.Uint32(buf[0:4])), len(buf)-pageHeaderSize)
}

// splitPage returns how many regions a page of pageSize bytes is split into
// for a requested region size, and the size each one gets. A request that
// divides the page asks for pageSize/regionSize regions and gets them: every
// region gives up its share of the page header (rounded down to 8 bytes, so
// regions stay aligned) instead of the header displacing the whole last one.
// Any other request keeps its size and gets the whole regions that fit.
func splitPage(pageSize int64, regionSize int) (n, size int) {
	if pageSize%int64(regionSize) == 0 {
		n = int(pageSize / int64(regionSize))
		return n, int((pageSize-pageHeaderSize)/int64(n)) &^ 7
	}
	return int((pageSize - pageHeaderSize) / int64(regionSize)), regionSize
}

// appendRecord writes one framed record at off within buf and returns the
// next offset. end is the exclusive limit of the region. ok is false when
// the record (plus its trailing terminator slot) does not fit.
func appendRecord(buf []byte, off, end int, rec []byte) (next int, ok bool) {
	need := recHeaderSize + len(rec)
	if off+need > end {
		return off, false
	}
	binary.LittleEndian.PutUint32(buf[off:off+4], uint32(len(rec)))
	copy(buf[off+4:off+4+len(rec)], rec)
	// Pre-write the terminator; the next append overwrites it.
	if off+need+recHeaderSize <= end {
		binary.LittleEndian.PutUint32(buf[off+need:off+need+4], 0)
	}
	return off + need, true
}

// walkRegion calls fn for every record in the region buf[off:end). It stops
// at a zero-length header or when fn returns an error.
func walkRegion(buf []byte, off, end int, fn func(rec []byte) error) error {
	for off+recHeaderSize <= end {
		n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		if n == 0 {
			return nil
		}
		if off+recHeaderSize+n > end {
			return fmt.Errorf("services: corrupt record of %d bytes at offset %d (region end %d)", n, off, end)
		}
		if err := fn(buf[off+recHeaderSize : off+recHeaderSize+n]); err != nil {
			return err
		}
		off += recHeaderSize + n
	}
	return nil
}

// WalkPage iterates every record in every region of a service page buffer.
// Columnar pages (recognized by their magic) are walked row-at-a-time
// through the materializing compatibility path.
func WalkPage(buf []byte, fn func(rec []byte) error) error {
	if IsColumnarPage(buf) {
		return walkColumnarPage(buf, fn)
	}
	rs := pageRegionSize(buf)
	if rs <= 0 {
		return fmt.Errorf("services: page has invalid region size %d", rs)
	}
	for off := pageHeaderSize; off+rs <= len(buf); off += rs {
		if err := walkRegion(buf, off, off+rs, fn); err != nil {
			return err
		}
	}
	return nil
}

// RecordOffsets is WalkPage's framing walk of a row page without the
// callback: it appends the payload offset of every record — every region, in
// page order — to offs, and returns the extended slice with the length of
// the shortest record (0 for an empty page). Record i is
// buf[offs[i]:offs[i]+RecordLen(buf, offs[i])]; the query layer presents a
// row page as a batch through this vector.
func RecordOffsets(buf []byte, offs []int32) (_ []int32, minLen int, err error) {
	rs := pageRegionSize(buf)
	if rs <= 0 {
		return offs, 0, fmt.Errorf("services: page has invalid region size %d", rs)
	}
	start := len(offs)
	minLen = len(buf)
	for base := pageHeaderSize; base+rs <= len(buf); base += rs {
		end := base + rs
		for off := base; off+recHeaderSize <= end; {
			n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
			if n == 0 {
				break
			}
			stride := recHeaderSize + n
			if off+stride > end {
				return offs, 0, fmt.Errorf("services: corrupt record of %d bytes at offset %d (region end %d)", n, off, end)
			}
			minLen = min(minLen, n)
			// A run of records of this same length — every record, in a
			// fixed-width table — is stepped over by the known stride: the
			// next header's address then does not wait on this header's
			// load, which is what bounds a walk that follows the lengths.
			for {
				offs = append(offs, int32(off+recHeaderSize))
				off += stride
				if off+stride > end || int(binary.LittleEndian.Uint32(buf[off:off+4])) != n {
					break
				}
			}
		}
	}
	if len(offs) == start {
		minLen = 0
	}
	return offs, minLen, nil
}

// RecordLen returns the length of the record whose payload starts at off, as
// RecordOffsets reported it.
func RecordLen(buf []byte, off int32) int {
	return int(binary.LittleEndian.Uint32(buf[off-recHeaderSize : off]))
}

// AppendFrame appends rec to run as one frame. A run of frames — records in
// the region framing, back to back, ended by the run's length: no terminator,
// no zero length — is how records cross the cluster. A run that must grow
// doubles: append's growth by quarters would copy a 1 MiB batch five times.
func AppendFrame(run, rec []byte) []byte {
	if n := len(run) + recHeaderSize + len(rec); n > cap(run) {
		run = append(make([]byte, 0, max(n, 2*cap(run))), run...)
	}
	return append(binary.LittleEndian.AppendUint32(run, uint32(len(rec))), rec...)
}

// framesEnd walks buf's frames from off and returns where they stop: at a zero
// length, or where no header fits. A frame that overruns buf is an error.
func framesEnd(buf []byte, off int) (int, error) {
	for off+recHeaderSize <= len(buf) {
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		if n == 0 {
			break
		}
		if n > len(buf)-off-recHeaderSize {
			return off, fmt.Errorf("services: frame of %d bytes at offset %d is cut short by the end of its %d bytes", n, off, len(buf))
		}
		off += recHeaderSize + n
	}
	return off, nil
}

// WalkFrames calls fn with every record of run, a slice of it, once it has
// checked the whole framing: a run with a frame cut short, a zero length or
// trailing bytes is refused, with the offset, before fn has seen a record.
func WalkFrames(run []byte, fn func(rec []byte) error) error {
	if end, err := framesEnd(run, 0); err != nil {
		return err
	} else if end != len(run) {
		return fmt.Errorf("services: zero length or trailing bytes at offset %d of a %d-byte run", end, len(run))
	}
	return walkRegion(run, 0, len(run), fn)
}

// PageFrames returns a service page's records as one run: a sequential row
// page's as they lie, a slice of page only valid while it is pinned; any other
// page's — columnar, several regions — framed into *buf, the caller's to reuse.
// A columnar page is transposed straight into its frames.
func PageFrames(page []byte, buf *[]byte) ([]byte, error) {
	if IsColumnarPage(page) {
		var p ColumnarPage
		if err := p.Reset(page); err != nil {
			return nil, err
		}
		*buf = p.rows(*buf, recHeaderSize)
		return *buf, nil
	}
	if pageRegionSize(page) == len(page)-pageHeaderSize {
		end, err := framesEnd(page, pageHeaderSize)
		return page[pageHeaderSize:end], err
	}
	*buf = (*buf)[:0]
	err := WalkPage(page, func(rec []byte) error { *buf = AppendFrame(*buf, rec); return nil })
	return *buf, err
}
