package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pangea/internal/locking"
	"pangea/internal/pfs"
)

// SetID identifies a locality set within one Pangea deployment.
type SetID int32

// ErrConsumed is wrapped by Pin when the page asked for belonged to a
// read-once set and its reader has released it (Retire): the page's lifetime
// is over and its bytes are gone, so the pin fails rather than return stale
// or empty data.
var ErrConsumed = errors.New("read-once page was consumed by its reader")

// LocalitySet is a set of pages associated with one dataset that an
// application uses in a uniform way (paper §3.2). All pages of a set share
// one size. A page may reside in memory, on disk, or both: the set's file
// instance (one Pangea data file + meta file per node, §4) holds images of
// all, some, or none of its pages, because transient write-back sets spill
// only under memory pressure.
type LocalitySet struct {
	pool     *BufferPool
	id       SetID
	name     string
	pageSize int64
	layout   PageLayout // page layout; immutable after CreateSet
	columns  []int      // columnar column widths; immutable after CreateSet
	quota    int64      // admission control: resident-byte cap, 0 = unlimited
	weight   float64    // fair-share weight, 0 = unweighted

	// residentBytes is the set's arena footprint. It is mutated exactly
	// once per frame transition — charged the moment allocMem carves a
	// frame for the set (before the page is even inserted, so the daemon
	// can never observe an under-quota set that is in fact mid-growth) and
	// released when the frame is freed (eviction, Retire, DropSet, or an
	// abandoned load) — and released by the difference when Shrink gives a
	// page's tail back. At quiescence residentBytes is the sum of Size()
	// over the resident pages, the invariant the stress tests check. It is
	// an atomic so the eviction daemon and the per-set gauges read it
	// without taking the set's lock.
	residentBytes atomic.Int64
	// pendingBytes counts allocation demand currently blocked in allocMem
	// on this set's behalf. It counts toward the set's footprint in the
	// fairness pass, so a tenant sitting exactly at its entitlement whose
	// next page would push it over self-evicts for that page instead of
	// stealing from an under-quota set. Touched only on the blocked path.
	pendingBytes atomic.Int64
	// stats is the set's counters (Stats, Snapshot).
	stats SetStats

	// mu guards everything below, plus the mutable fields of this set's
	// Pages. Each set has its own lock so Pin/Unpin/NewPage traffic on
	// different sets never contends; cond wakes waiters for pages that are
	// mid-load or mid-eviction.
	mu       locking.Mutex
	cond     *sync.Cond
	attrs    Attributes
	file     *pfs.PagedFile
	resident map[int64]*Page
	// loading holds one loadOp per page currently being read from disk —
	// demand misses and prefetches alike. Pins of a loading page coalesce
	// onto the op and share its outcome (frame or error) single-flight
	// style instead of issuing their own reads.
	loading    map[int64]*loadOp
	nextNum    int64
	lastAccess int64 // AccessRecency: tick of the set's last page access
	dropped    bool
	// consumed is a bitset over page numbers: the pages of a read-once set
	// whose last reader retired them. They are neither resident nor worth
	// reading back — Pin refuses them and Prefetch skips them — but they still
	// count in NumPages/PageNums, and any image a spill left on disk stays in
	// DiskBytes until DropSet.
	consumed []uint64
	// sideIndexes is a small keyed registry of opaque scan-side summaries
	// attached to the set (the services zone map and microindex; core
	// cannot name the types without an import cycle). Keys are the side
	// objects' pfs tags, so one set carries several coexisting summaries;
	// scans read them through SideIndex to prune pages before pinning.
	sideIndexes map[string]any
}

// ID returns the set's identifier.
func (s *LocalitySet) ID() SetID { return s.id }

// Name returns the set's name.
func (s *LocalitySet) Name() string { return s.name }

// PageSize returns the fixed page size shared by all pages of the set.
func (s *LocalitySet) PageSize() int64 { return s.pageSize }

// Layout returns the set's page layout (LayoutRow unless the spec asked
// for columnar pages).
func (s *LocalitySet) Layout() PageLayout { return s.layout }

// ColumnWidths returns the fixed byte width of each column for columnar
// sets (nil for row layout). The slice is shared and must not be mutated.
func (s *LocalitySet) ColumnWidths() []int { return s.columns }

// Attrs returns a snapshot of the set's attribute tags.
func (s *LocalitySet) Attrs() Attributes {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs
}

// SetWriting stamps the writing-pattern attribute. Services call this when
// an allocator is attached to the set (§3.2).
func (s *LocalitySet) SetWriting(w WritingPattern) {
	s.mu.Lock()
	s.attrs.Writing = w
	s.mu.Unlock()
}

// SetReading stamps the reading-pattern attribute.
func (s *LocalitySet) SetReading(r ReadingPattern) {
	s.mu.Lock()
	s.attrs.Reading = r
	s.mu.Unlock()
}

// SetCurrentOp stamps the current-operation attribute.
func (s *LocalitySet) SetCurrentOp(op CurrentOperation) {
	s.mu.Lock()
	s.attrs.CurrentOp = op
	s.mu.Unlock()
}

// SetReadOnce stamps the per-page Lifetime attribute (Attributes.ReadOnce):
// each page will be read exactly once, and its reader's Retire ends it. The
// stamp is refused on write-through sets — their pages are user data that
// other applications must be able to read after this one has.
func (s *LocalitySet) SetReadOnce() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs.Durability == WriteThrough {
		return fmt.Errorf("core: set %q is write-through: its pages outlive their first reader", s.name)
	}
	s.attrs.ReadOnce = true
	return nil
}

// BeginScan is the sequential read service's one call into the set when a
// scan of the listed pages starts. Under a single hold of the set's lock it
// stamps ReadingPattern=sequential-read and CurrentOperation=read and returns
// what the scan's cursor needs to know: the order to visit the pages in, the
// read-ahead window in pages (see PoolConfig.ReadAhead), and whether the set
// is read-once — in which case the cursor releases each page with Retire
// instead of Unpin.
//
// For every set without the read-once stamp the order is nums itself. A
// read-once set's pages carry no order, so its scan takes the pages that are
// resident right now first and the spilled ones after, each half in nums'
// order: the reader frees frames before it needs any, instead of evicting —
// and writing back — resident pages it would have consumed a moment later.
// The order is a hint taken once, here: a page evicted before its turn is
// simply loaded.
func (s *LocalitySet) BeginScan(nums []int64) (order []int64, readAhead int, readOnce bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attrs.Reading = SequentialRead
	s.attrs.CurrentOp = OpRead
	if !s.attrs.ReadOnce {
		return nums, s.pool.readAhead, false
	}
	order = make([]int64, 0, len(nums))
	var spilled []int64
	for _, num := range nums {
		// A page the evictor has claimed is on its way out: its turn comes
		// with the spilled ones.
		if p := s.resident[num]; p != nil && !p.evicting {
			order = append(order, num)
		} else {
			spilled = append(spilled, num)
		}
	}
	return append(order, spilled...), s.pool.readAhead, true
}

// EndLifetime declares that the data will never be accessed again. Pages of
// lifetime-ended sets are always evicted first, and dirty pages are dropped
// without being spilled (§6).
func (s *LocalitySet) EndLifetime() {
	s.mu.Lock()
	s.attrs.LifetimeEnded = true
	s.mu.Unlock()
}

// NumPages returns the total number of logical pages ever appended to the
// set on this node (resident and/or spilled).
func (s *LocalitySet) NumPages() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextNum
}

// ResidentPages returns how many of the set's pages are currently cached.
func (s *LocalitySet) ResidentPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.resident)
}

// ResidentBytes returns the set's resident-page footprint in bytes.
func (s *LocalitySet) ResidentBytes() int64 { return s.residentBytes.Load() }

// MemoryQuota returns the set's resident-byte cap (0 = unlimited).
func (s *LocalitySet) MemoryQuota() int64 { return s.quota }

// Weight returns the set's fair-share weight (0 = unweighted).
func (s *LocalitySet) Weight() float64 { return s.weight }

// Entitlement returns the set's fair share of the pool in bytes: its
// quota if one is set, else its weight-proportional share of the arena,
// else the whole arena (an unconstrained set is never over-entitled).
func (s *LocalitySet) Entitlement() int64 { return s.pool.entitlement(s) }

// ZoneMapChecks, ZoneMapSkips and IndexHits read the set's Stats counters
// of those names.
func (s *LocalitySet) ZoneMapChecks() int64 { return s.stats.ZoneMapChecks.Load() }
func (s *LocalitySet) ZoneMapSkips() int64  { return s.stats.ZoneMapSkips.Load() }
func (s *LocalitySet) IndexHits() int64     { return s.stats.IndexHits.Load() }

// SetSideIndex attaches an opaque scan-side summary (e.g. the services zone
// map or microindex) under key — conventionally the summary's pfs
// side-object tag; nil detaches that key. Keys are independent, so several
// summaries coexist on one set. The set does not interpret the values — the
// query layer type-asserts what it finds.
func (s *LocalitySet) SetSideIndex(key string, idx any) {
	s.mu.Lock()
	if idx == nil {
		delete(s.sideIndexes, key)
	} else {
		if s.sideIndexes == nil {
			s.sideIndexes = make(map[string]any)
		}
		s.sideIndexes[key] = idx
	}
	s.mu.Unlock()
}

// SideIndex returns the scan-side summary attached under key, or nil.
func (s *LocalitySet) SideIndex(key string) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sideIndexes[key]
}

// WriteSideObject persists a named per-set side object (e.g. a serialized
// zone map) through the set's file instance. The object is replaced
// atomically with respect to readers of this process.
func (s *LocalitySet) WriteSideObject(tag string, data []byte) error {
	return s.file.WriteSideObject(tag, data)
}

// ReadSideObject returns the contents of a named side object, or an error
// wrapping pfs.ErrNoSideObject when none was ever written.
func (s *LocalitySet) ReadSideObject(tag string) ([]byte, error) {
	return s.file.ReadSideObject(tag)
}

// dropFrame frees a carved frame that never became (or no longer is) a
// resident page and releases its admission charge — the abandon-path
// counterpart of allocMem's charge.
func (s *LocalitySet) dropFrame(off int64) {
	s.pool.alloc.Free(off)
	s.releaseResident(s.pageSize)
}

// chargeResident books n bytes against the set's residency gauge and
// returns the new total. Every resident-byte mutation must flow through
// chargeResident/releaseResident — the gaugepair analyzer enforces this, so
// charge/release sites stay greppable and pair up one-to-one.
func (s *LocalitySet) chargeResident(n int64) int64 {
	return s.residentBytes.Add(n)
}

// releaseResident unwinds a chargeResident of n bytes.
func (s *LocalitySet) releaseResident(n int64) {
	s.residentBytes.Add(-n)
}

// chargePending books n bytes of blocked demand against the set's fairness
// footprint; the blessed twin of releasePending (see chargeResident).
func (s *LocalitySet) chargePending(n int64) int64 {
	return s.pendingBytes.Add(n)
}

// releasePending unwinds a chargePending of n bytes.
func (s *LocalitySet) releasePending(n int64) {
	s.pendingBytes.Add(-n)
}

// PageNums returns the sorted page numbers of the set on this node.
func (s *LocalitySet) PageNums() []int64 {
	s.mu.Lock()
	n := s.nextNum
	s.mu.Unlock()
	nums := make([]int64, n)
	for i := range nums {
		nums[i] = int64(i)
	}
	return nums
}

// NewPage appends a fresh page to the set and returns it pinned and dirty.
// The caller must Unpin it when done writing.
func (s *LocalitySet) NewPage() (*Page, error) {
	bp := s.pool
	off, err := bp.allocMem(s, s.pageSize)
	if err != nil {
		return nil, fmt.Errorf("core: new page for set %q: %w", s.name, err)
	}
	s.mu.Lock()
	if s.dropped {
		s.mu.Unlock()
		s.dropFrame(off)
		return nil, fmt.Errorf("core: set %q is dropped", s.name)
	}
	tick := bp.nextTick()
	p := &Page{set: s, num: s.nextNum, off: off, size: s.pageSize, pin: 1, dirty: true, lastRef: tick}
	s.nextNum++
	s.resident[p.num] = p
	s.lastAccess = tick
	s.mu.Unlock()
	return p, nil
}

// Shrink gives the arena back every byte of page p beyond its first n, so a
// sealed page holds only what was written on it: the page's Size becomes n,
// its allocator block the smallest that holds n, and the set's resident
// bytes (and the pool's used bytes) drop by the difference. It acts only
// while the caller holds the page's only pin — no reader can hold a slice of
// the tail — and reports whether it did: with another pin held, with n not
// below the page's size, or with a tail too small to be an allocator block
// it changes nothing. A shrunk page spills padded to the set's page size and
// reloads into a full frame.
func (s *LocalitySet) Shrink(p *Page, n int64) bool {
	bp := s.pool
	s.mu.Lock()
	if p.pin != 1 || n <= 0 || n >= p.size || bp.alloc.Shrink(p.off, n) == 0 {
		s.mu.Unlock()
		return false
	}
	s.releaseResident(p.size - n)
	p.size = n
	s.mu.Unlock()
	if bp.evictor.waiters.Load() > 0 {
		bp.evictor.broadcast(nil) // memory reclaimed
	}
	return true
}

// Pin makes page num resident (loading it from the set's file instance if
// needed), increments its reference count, and returns it. The caller must
// Unpin it.
//
// A pin of a page that is already mid-load — whether by a demand miss or by
// the prefetcher — coalesces onto the in-flight read single-flight style:
// one disk read serves every waiter, and if the read fails every waiter gets
// the loader's error instead of fanning out into its own retry read. Pin
// itself never speculates: read-ahead belongs to the sequential scan cursor
// (services.PageIteratorsFor), which knows the scan's page list and frontier.
func (s *LocalitySet) Pin(num int64) (*Page, error) {
	bp := s.pool
	s.mu.Lock()
	for {
		if s.dropped {
			s.mu.Unlock()
			return nil, fmt.Errorf("core: set %q is dropped", s.name)
		}
		if p, ok := s.resident[num]; ok {
			if p.evicting {
				s.cond.Wait()
				continue
			}
			p.pin++
			tick := bp.nextTick()
			p.lastRef = tick
			s.lastAccess = tick
			if p.prefetched {
				// First real reference to a speculative frame: the guess paid
				// off.
				p.prefetched = false
				bp.stats.PrefetchHits.Add(1)
			}
			s.mu.Unlock()
			return p, nil
		}
		if op := s.loading[num]; op != nil {
			// Another goroutine is reading this page from disk; wait for its
			// outcome instead of issuing a second read.
			for !op.done {
				s.cond.Wait()
			}
			if op.err != nil {
				s.mu.Unlock()
				return nil, fmt.Errorf("core: load page %d of set %q: %w", num, s.name, op.err)
			}
			// Loaded (the resident branch picks it up) or canceled before a
			// frame was carved (this pin becomes the loader).
			continue
		}
		break
	}
	if num < 0 || num >= s.nextNum {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: set %q has no page %d", s.name, num)
	}
	if s.isConsumed(num) {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: pin page %d of set %q: %w", num, s.name, ErrConsumed)
	}
	op := &loadOp{}
	s.register(num, op)
	s.mu.Unlock()

	off, err := bp.allocMem(s, s.pageSize)
	if err != nil {
		s.cancelLoad(num, op)
		return nil, fmt.Errorf("core: pin page %d of set %q: %w", num, s.name, err)
	}
	loc, err := s.file.Locate(num)
	if err == nil {
		err = s.file.ReadPageAt(loc, num, bp.arena.Slice(off, s.pageSize))
	}
	return s.finishLoad(num, op, off, err, false)
}

// Unpin releases one reference to the page. If dirty is true the page is
// marked modified; for write-through sets a modified page is synchronously
// persisted to the set's file instance before the pin drops (§4).
func (s *LocalitySet) Unpin(p *Page, dirty bool) error {
	bp := s.pool
	s.mu.Lock()
	if p.pin <= 0 {
		s.mu.Unlock()
		return fmt.Errorf("core: unpin of unpinned page %d of set %q", p.num, s.name)
	}
	if dirty {
		p.dirty = true
	}
	needFlush := p.dirty && s.attrs.Durability == WriteThrough && !s.attrs.LifetimeEnded
	s.mu.Unlock()

	var flushErr error
	if needFlush {
		flushErr = s.file.WritePage(p.num, p.Bytes())
		if flushErr == nil {
			bp.stats.FlushWrites.Add(1)
		}
	}
	s.mu.Lock()
	if needFlush && flushErr == nil {
		p.dirty = false
	}
	p.pin--
	nowEvictable := p.pin == 0
	s.mu.Unlock()
	if nowEvictable && bp.evictor.waiters.Load() > 0 {
		// The page just became evictable; let blocked allocations retry
		// (their retry re-kicks the eviction daemon).
		bp.evictor.broadcast(nil)
	}
	return flushErr
}

// Retire is the release of a read-once set's reader (Attributes.ReadOnce):
// it drops one reference like Unpin, and when that was the last one the
// page's lifetime is over. The page leaves the resident map and its frame goes
// back to the allocator at once — never written back, even if it is dirty and
// was never spilled: nobody will read those bytes again — and its number is
// recorded as consumed, so a later Pin fails with ErrConsumed and Prefetch
// skips it. A page another reader still holds stays until that reader's own
// release. Retire fails, leaving the pin in place, on a set without the
// read-once stamp.
func (s *LocalitySet) Retire(p *Page) error {
	bp := s.pool
	s.mu.Lock()
	if !s.attrs.ReadOnce {
		s.mu.Unlock()
		return fmt.Errorf("core: retire page %d of set %q: the set is not read-once", p.num, s.name)
	}
	if p.pin <= 0 {
		s.mu.Unlock()
		return fmt.Errorf("core: retire of unpinned page %d of set %q", p.num, s.name)
	}
	p.pin--
	if p.pin > 0 {
		s.mu.Unlock()
		return nil
	}
	// A pinned page is never under an eviction claim, and with the lock held
	// from the last pin's drop to the removal the evictor cannot take one.
	delete(s.resident, p.num)
	s.markConsumed(p.num)
	s.releaseResident(p.size)
	s.mu.Unlock()
	bp.alloc.Free(p.off)
	// The freed frame pays down the starved-prefetch budget like an evicted
	// one (settle), and is what a blocked allocation is waiting for.
	bp.consumeStarved(p.size)
	if bp.evictor.waiters.Load() > 0 {
		bp.evictor.broadcast(nil)
	}
	return nil
}

// isConsumed reports whether page num was retired. The caller holds s.mu and
// has checked 0 <= num < nextNum.
func (s *LocalitySet) isConsumed(num int64) bool {
	w := int(num >> 6)
	return w < len(s.consumed) && s.consumed[w]&(1<<(uint(num)&63)) != 0
}

// markConsumed records page num as retired. The caller holds s.mu.
func (s *LocalitySet) markConsumed(num int64) {
	if w := int(s.nextNum+63) >> 6; w > len(s.consumed) {
		s.consumed = append(s.consumed, make([]uint64, w-len(s.consumed))...)
	}
	s.consumed[num>>6] |= 1 << (uint(num) & 63)
}

// FlushAll persists every resident dirty page. Used to force a consistent
// on-disk image (e.g. before registering the set as a replica).
func (s *LocalitySet) FlushAll() error {
	s.mu.Lock()
	// Wait out in-flight evictions of dirty pages: the daemon is already
	// writing those back, and pinning a page mid-eviction would let its
	// memory be recycled while we hold it.
	for {
		busy := false
		for _, p := range s.resident {
			if p.dirty && p.evicting {
				busy = true
				break
			}
		}
		if !busy {
			break
		}
		s.cond.Wait()
	}
	var dirtyPages []*Page
	for _, p := range s.resident {
		if p.dirty {
			p.pin++ // hold against eviction during the write
			dirtyPages = append(dirtyPages, p)
		}
	}
	s.mu.Unlock()
	var first error
	for _, p := range dirtyPages {
		if err := s.file.WritePage(p.num, p.Bytes()); err != nil && first == nil {
			first = err
		}
	}
	s.mu.Lock()
	released := false
	for _, p := range dirtyPages {
		if first == nil {
			p.dirty = false
		}
		p.pin--
		if p.pin == 0 {
			released = true
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if released && s.pool.evictor.waiters.Load() > 0 {
		// Pages held against eviction during the writes are evictable
		// again; wake blocked allocations.
		s.pool.evictor.broadcast(nil)
	}
	if first != nil {
		return first
	}
	return s.file.FlushMeta()
}

// DiskBytes reports the set's on-disk footprint on this node.
func (s *LocalitySet) DiskBytes() int64 { return s.file.DiskBytes() }
