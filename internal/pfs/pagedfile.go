// Package pfs implements the Pangea file system (paper §4): a user-level
// paged file layer that bypasses any OS-cache layering. A distributed file
// instance is associated with one locality set; on each worker node it is
// one PagedFile — a data file per disk drive (pages assigned round-robin
// when the node has multiple drives) plus a meta file that indexes each
// page's drive and offset. A locality-set page may have an on-disk image
// here, or not (transient write-back sets spill only under memory
// pressure), so the file holds an arbitrary subset of the set's pages.
// Nothing is opened until it is needed: a drive's data file is created by
// the first page placed on that drive, and the meta file by the first
// FlushMeta, so a set that never spills never touches the file system.
package pfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pangea/internal/disk"
	"pangea/internal/locking"
)

// PageLoc records where a page image lives: which drive and the byte offset
// within that drive's data file.
type PageLoc struct {
	Drive  int32
	Offset int64
}

// ErrNoPage is returned when reading a page that has no on-disk image.
var ErrNoPage = errors.New("pfs: page has no on-disk image")

// ErrNoSideObject is returned when reading a side object that was never
// written.
var ErrNoSideObject = errors.New("pfs: no such side object")

// ErrCorruptSideObject is returned when a side object's on-disk frame fails
// validation — a torn write (crash between truncate and the full payload
// landing), a bit flip, or an object written by something that is not
// WriteSideObject. Side objects are derived caches, so callers treat this
// as "rebuild", never as data loss — but unlike ErrNoSideObject it means a
// write happened and did not survive intact.
var ErrCorruptSideObject = errors.New("pfs: side object corrupt or torn")

const (
	metaMagic   = 0x50414E47 // "PANG"
	metaVersion = 1
)

// PagedFile is one node-local file instance of a locality set.
type PagedFile struct {
	name     string
	pageSize int64
	array    *disk.Array

	// flushMu serializes FlushMeta, which writes one sibling file at a time;
	// it is taken before mu and held across the rewrite's I/O, which mu is not.
	flushMu sync.Mutex

	mu    locking.Mutex
	data  []*disk.File          // one per drive; nil until a page is placed there
	meta  *disk.File            // on drive 0; nil until the first FlushMeta
	pages map[int64]PageLoc     // page number -> location
	next  []int64               // per-drive append offset
	seq   int64                 // round-robin counter for new pages
	sides map[string]*disk.File // open side-object files by tag, on drive 0
}

// Create makes a new, empty paged file named name with the given page size.
// It opens no file: the name is checked here, and each file is created the
// first time something is written to it.
func Create(array *disk.Array, name string, pageSize int64) (*PagedFile, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("pfs: invalid page size %d", pageSize)
	}
	// Names arrive over the cluster wire; one that could leave the drive's
	// directory, or that the OS would refuse later, is refused now.
	if strings.IndexByte(name, 0) >= 0 || !filepath.IsLocal(name) {
		return nil, fmt.Errorf("pfs: invalid file name %q", name)
	}
	pf := &PagedFile{
		name:     name,
		pageSize: pageSize,
		array:    array,
		pages:    make(map[int64]PageLoc),
		data:     make([]*disk.File, array.Len()),
		next:     make([]int64, array.Len()),
	}
	pf.mu.Init(locking.RankPFS)
	return pf, nil
}

// Open re-attaches an existing paged file, reading the page index from the
// meta file. Used after restart and by durability tests. A drive that never
// received a page has no data file, and gets one if a page is placed there.
func Open(array *disk.Array, name string) (*PagedFile, error) {
	if !array.Disk(0).Exists(name + ".meta") {
		return nil, fmt.Errorf("pfs: %s has no meta file", name)
	}
	pf := &PagedFile{
		name:  name,
		array: array,
		pages: make(map[int64]PageLoc),
		data:  make([]*disk.File, array.Len()),
		next:  make([]int64, array.Len()),
	}
	pf.mu.Init(locking.RankPFS)
	for i := range pf.data {
		if !array.Disk(i).Exists(name + ".data") {
			continue
		}
		f, err := array.Disk(i).OpenFile(name + ".data")
		if err != nil {
			_ = pf.closeAll()
			return nil, err
		}
		pf.data[i] = f
	}
	meta, err := array.Disk(0).OpenFile(name + ".meta")
	if err != nil {
		_ = pf.closeAll()
		return nil, err
	}
	pf.meta = meta
	if err := pf.loadMeta(); err != nil {
		_ = pf.closeAll()
		return nil, err
	}
	return pf, nil
}

// Name returns the file instance's name.
func (pf *PagedFile) Name() string { return pf.name }

// PageSize returns the fixed page size of the associated locality set.
func (pf *PagedFile) PageSize() int64 { return pf.pageSize }

// PlacePage returns the on-disk location of page pageNum, assigning one if
// the page has no image yet: new pages are appended to the next drive in
// round-robin order, and the first page a drive gets creates its data file.
// The assignment is stable — a later failed write keeps the location, and a
// retry writes to the same extent. Placement is the only part of a page
// write that needs the index lock; the eviction daemon's spill pipeline
// places every victim first, groups them by PageLoc.Drive, and lets
// per-drive writers call WritePageAt concurrently.
func (pf *PagedFile) PlacePage(pageNum int64) (PageLoc, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if loc, ok := pf.pages[pageNum]; ok {
		return loc, nil
	}
	drive := int32(pf.seq % int64(len(pf.data)))
	if pf.data[drive] == nil {
		f, err := pf.array.Disk(int(drive)).Create(pf.name + ".data")
		if err != nil {
			return PageLoc{}, err
		}
		pf.data[drive] = f
	}
	pf.seq++
	loc := PageLoc{Drive: drive, Offset: pf.next[drive]}
	pf.next[drive] += pf.pageSize
	pf.pages[pageNum] = loc
	return loc, nil
}

// dataFile returns the data file loc names. It takes no lock: a location
// leaves PlacePage or Locate only once its drive's file exists, and that
// slot is never written again, so whoever holds a location sees the file.
func (pf *PagedFile) dataFile(loc PageLoc, pageNum int64) (*disk.File, error) {
	if loc.Drive < 0 || int(loc.Drive) >= len(pf.data) || pf.data[loc.Drive] == nil {
		return nil, fmt.Errorf("pfs: page %d location names drive %d, which has no data file of %s", pageNum, loc.Drive, pf.name)
	}
	return pf.data[loc.Drive], nil
}

// WritePageAt persists data as the image of page pageNum at loc, which must
// come from PlacePage (or a prior read of the index). It takes no lock: the
// location is already assigned and its drive's data file already created,
// so concurrent writers targeting different drives never serialize on the
// file — only on their own drive's time model.
func (pf *PagedFile) WritePageAt(loc PageLoc, pageNum int64, data []byte) error {
	if int64(len(data)) > pf.pageSize {
		return fmt.Errorf("pfs: page %d data %d bytes exceeds page size %d", pageNum, len(data), pf.pageSize)
	}
	f, err := pf.dataFile(loc, pageNum)
	if err != nil {
		return err
	}
	// Pad to full page so every on-disk image has fixed extent.
	if int64(len(data)) < pf.pageSize {
		padded := make([]byte, pf.pageSize)
		copy(padded, data)
		data = padded
	}
	_, err = f.WriteAt(data, loc.Offset)
	return err
}

// WritePage persists the image of page pageNum. len(data) must not exceed
// the page size. Re-writing an existing page overwrites it in place; a new
// page is appended to the next drive in round-robin order.
func (pf *PagedFile) WritePage(pageNum int64, data []byte) error {
	if int64(len(data)) > pf.pageSize {
		// Reject before placement so an invalid write never claims an
		// index entry and a disk extent.
		return fmt.Errorf("pfs: page %d data %d bytes exceeds page size %d", pageNum, len(data), pf.pageSize)
	}
	loc, err := pf.PlacePage(pageNum)
	if err != nil {
		return err
	}
	return pf.WritePageAt(loc, pageNum, data)
}

// Locate returns the on-disk location of page pageNum, or an ErrNoPage
// error when the page has no image. It is the read-side half of PlacePage:
// look the location up once under the index lock, then read the extent with
// ReadPageAt without it. Locations are stable — pages are never relocated —
// so a Locate result stays valid for the life of the file instance.
func (pf *PagedFile) Locate(pageNum int64) (PageLoc, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	loc, ok := pf.pages[pageNum]
	if !ok {
		return PageLoc{}, fmt.Errorf("%w: page %d of %s", ErrNoPage, pageNum, pf.name)
	}
	return loc, nil
}

// ReadPageAt reads the image of page pageNum from loc, which must come from
// Locate (or PlacePage). Like WritePageAt it takes no lock: the location is
// already known and its drive's data file already created, so concurrent
// readers targeting different drives never serialize on the file — only on
// their own drive's time model. The prefetching read path's per-drive
// queues depend on this.
func (pf *PagedFile) ReadPageAt(loc PageLoc, pageNum int64, buf []byte) error {
	if int64(len(buf)) < pf.pageSize {
		return fmt.Errorf("pfs: buffer %d bytes smaller than page size %d", len(buf), pf.pageSize)
	}
	f, err := pf.dataFile(loc, pageNum)
	if err != nil {
		return err
	}
	_, err = f.ReadAt(buf[:pf.pageSize], loc.Offset)
	return err
}

// ReadPage reads the image of page pageNum into buf, which must be at least
// the page size.
func (pf *PagedFile) ReadPage(pageNum int64, buf []byte) error {
	loc, err := pf.Locate(pageNum)
	if err != nil {
		return err
	}
	return pf.ReadPageAt(loc, pageNum, buf)
}

// NumPages returns the number of pages with on-disk images.
func (pf *PagedFile) NumPages() int {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return len(pf.pages)
}

// PageNums returns the sorted page numbers that have on-disk images.
func (pf *PagedFile) PageNums() []int64 {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	out := make([]int64, 0, len(pf.pages))
	for n := range pf.pages {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DiskBytes reports the total on-disk footprint of the file instance.
func (pf *PagedFile) DiskBytes() int64 {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return int64(len(pf.pages)) * pf.pageSize
}

// FlushMeta persists the page index to the meta file. Pangea's meta file is
// small — the central manager stores only set-level metadata, and each node's
// meta file indexes only local pages (paper §4). The index is snapshotted
// under the index lock, then written whole to a sibling file, synced, and
// renamed over the meta file, whose directory is synced last, so a failed or
// torn rewrite leaves the previous index in place. Flushes run one at a time;
// placement and lookups do not wait on a flush's I/O.
func (pf *PagedFile) FlushMeta() error {
	pf.flushMu.Lock()
	defer pf.flushMu.Unlock()
	pf.mu.Lock()
	nums := make([]int64, 0, len(pf.pages))
	for n := range pf.pages {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	buf := make([]byte, 0, 32+len(nums)*20)
	var tmp [8]byte
	put64 := func(v int64) {
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		buf = append(buf, tmp[:]...)
	}
	put64(metaMagic)
	put64(metaVersion)
	put64(pf.pageSize)
	put64(int64(len(nums)))
	for _, n := range nums {
		loc := pf.pages[n]
		put64(n)
		put64(int64(loc.Drive))
		put64(loc.Offset)
	}
	pf.mu.Unlock()
	meta, err := pf.array.Disk(0).Create(pf.name + ".meta.new")
	if err != nil {
		return err
	}
	if _, err = meta.WriteAt(buf, 0); err == nil {
		if err = meta.Sync(); err == nil {
			err = meta.Rename(pf.name + ".meta")
		}
	}
	if err != nil {
		_ = meta.Remove() // the failed write's error is the one to report
		return err
	}
	pf.mu.Lock()
	old := pf.meta
	pf.meta = meta
	pf.mu.Unlock()
	if old != nil {
		_ = old.Close() // its file was just replaced
	}
	return pf.array.Disk(0).SyncDir()
}

// loadMeta reads the page index back from the meta file.
func (pf *PagedFile) loadMeta() error {
	size, err := pf.meta.Size()
	if err != nil {
		return err
	}
	if size == 0 {
		return errors.New("pfs: empty meta file")
	}
	buf := make([]byte, size)
	if _, err := pf.meta.ReadAt(buf, 0); err != nil {
		return err
	}
	get64 := func(i int) int64 { return int64(binary.LittleEndian.Uint64(buf[i*8:])) }
	if get64(0) != metaMagic {
		return fmt.Errorf("pfs: bad meta magic in %s", pf.name)
	}
	if get64(1) != metaVersion {
		return fmt.Errorf("pfs: unsupported meta version %d", get64(1))
	}
	pf.pageSize = get64(2)
	count := get64(3)
	for i := int64(0); i < count; i++ {
		base := int(4 + i*3)
		num, drive, off := get64(base), get64(base+1), get64(base+2)
		pf.pages[num] = PageLoc{Drive: int32(drive), Offset: off}
		if end := off + pf.pageSize; end > pf.next[drive] {
			pf.next[drive] = end
		}
	}
	pf.seq = count
	return nil
}

// Side objects are small named companions of a file instance — per-set
// summaries like zone maps — stored as "<name>.<tag>" on drive 0 next to the
// meta file. They are caches derived from the page data: a reader that finds
// none (or a stale one) rebuilds, so side objects need none of the paging
// machinery — a whole-object write and a whole-object read suffice.

// sideFile returns the open handle for tag, opening or (when create is set)
// creating the on-disk file on demand. Caller holds pf.mu.
func (pf *PagedFile) sideFile(tag string, create bool) (*disk.File, error) {
	if f, ok := pf.sides[tag]; ok {
		return f, nil
	}
	name := pf.name + "." + tag
	if !create && !pf.array.Disk(0).Exists(name) {
		return nil, fmt.Errorf("%w: %s of %s", ErrNoSideObject, tag, pf.name)
	}
	f, err := pf.array.Disk(0).OpenFile(name)
	if err != nil {
		return nil, err
	}
	if pf.sides == nil {
		pf.sides = make(map[string]*disk.File)
	}
	pf.sides[tag] = f
	return f, nil
}

// Side objects are framed on disk so a torn write is detectable: a fixed
// header carrying the payload length and its CRC precedes the payload, and
// ReadSideObject re-verifies both. WriteSideObject still truncates then
// writes (side objects are rebuildable caches, so detection suffices —
// readers that find a torn frame get ErrCorruptSideObject and rebuild),
// but it writes the whole frame in one WriteAt so a crash can no longer
// leave a prefix of the new object that parses as a short valid one.
const (
	sideMagic      = 0x44495350 // "PSID"
	sideVersion    = 1
	sideHeaderSize = 4 + 4 + 8 + 4 // magic, version, payload length, payload crc32
)

// WriteSideObject replaces the contents of the named side object.
func (pf *PagedFile) WriteSideObject(tag string, data []byte) error {
	pf.mu.Lock()
	f, err := pf.sideFile(tag, true)
	pf.mu.Unlock()
	if err != nil {
		return err
	}
	frame := make([]byte, sideHeaderSize+len(data))
	le := binary.LittleEndian
	le.PutUint32(frame[0:4], sideMagic)
	le.PutUint32(frame[4:8], sideVersion)
	le.PutUint64(frame[8:16], uint64(len(data)))
	le.PutUint32(frame[16:20], crc32.ChecksumIEEE(data))
	copy(frame[sideHeaderSize:], data)
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.WriteAt(frame, 0); err != nil {
		return err
	}
	return f.Sync()
}

// ReadSideObject returns the full contents of the named side object, an
// error wrapping ErrNoSideObject when it was never written, or one wrapping
// ErrCorruptSideObject when the on-disk frame fails validation (torn or
// corrupted object — rebuild it).
func (pf *PagedFile) ReadSideObject(tag string) ([]byte, error) {
	pf.mu.Lock()
	f, err := pf.sideFile(tag, false)
	pf.mu.Unlock()
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < sideHeaderSize {
		return nil, fmt.Errorf("%w: %s of %s is %d bytes, shorter than the %d-byte frame header",
			ErrCorruptSideObject, tag, pf.name, size, sideHeaderSize)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:4]) != sideMagic {
		return nil, fmt.Errorf("%w: %s of %s has bad frame magic", ErrCorruptSideObject, tag, pf.name)
	}
	if v := le.Uint32(buf[4:8]); v != sideVersion {
		return nil, fmt.Errorf("%w: %s of %s has frame version %d", ErrCorruptSideObject, tag, pf.name, v)
	}
	plen := le.Uint64(buf[8:16])
	if plen != uint64(size-sideHeaderSize) {
		return nil, fmt.Errorf("%w: %s of %s claims %d payload bytes, file holds %d",
			ErrCorruptSideObject, tag, pf.name, plen, size-sideHeaderSize)
	}
	payload := buf[sideHeaderSize:]
	if crc32.ChecksumIEEE(payload) != le.Uint32(buf[16:20]) {
		return nil, fmt.Errorf("%w: %s of %s fails its checksum", ErrCorruptSideObject, tag, pf.name)
	}
	return payload, nil
}

// closeAll closes every underlying file and returns the first close
// error. Error-path callers discard the result deliberately (the original
// error wins); Close propagates it, since a failed close of a written data
// file can mean lost bytes.
func (pf *PagedFile) closeAll() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, f := range pf.data {
		if f != nil {
			keep(f.Close())
		}
	}
	if pf.meta != nil {
		keep(pf.meta.Close())
	}
	for _, f := range pf.sides {
		keep(f.Close())
	}
	return first
}

// Close closes all underlying files after flushing the meta index.
func (pf *PagedFile) Close() error {
	if err := pf.FlushMeta(); err != nil {
		return err
	}
	return pf.closeAll()
}

// Remove deletes the file instance from all drives. The data is gone; used
// when a locality set's lifetime ends or a set is dropped. Files that were
// never created are skipped.
func (pf *PagedFile) Remove() error {
	var first error
	keep := func(f *disk.File) {
		if f == nil {
			return
		}
		if err := f.Remove(); err != nil && first == nil {
			first = err
		}
	}
	for _, f := range pf.data {
		keep(f)
	}
	keep(pf.meta)
	for _, f := range pf.sides {
		keep(f)
	}
	return first
}
