package core

import (
	"errors"
	"fmt"

	"pangea/internal/disk"
	"pangea/internal/pfs"
)

// errSpecQuota marks a speculative allocation refused by the set's own hard
// quota rather than by pool memory: evicting other tenants would not help,
// so the refusal must not arm the eviction daemon's reclaim budget.
var errSpecQuota = errors.New("core: speculation refused by quota")

// loadQueueDepth bounds how many page reads may be pending on one drive.
// Prefetch submission stops when a drive's queue is full (Submit blocks the
// hinting goroutine, which issues at most a window's worth of pages), so
// speculation can never buffer unbounded frames ahead of what the drives
// deliver.
const loadQueueDepth = 32

// DefaultReadAheadPerDrive scales the automatic read-ahead window with the
// disk array when PoolConfig.ReadAhead is zero: two pages in flight per
// drive is exactly what a drive's queue dispatches at once (disk.Queue), so
// the next read's slot is reserved while the previous page streams off the
// drive, which is all the depth a scan can use — reads can't go faster than
// the array. Deeper windows only cost: every speculative frame displaces a
// resident page, so on a looping scan an oversized window evicts exactly the
// pages the next pass would have re-hit (measured: a fixed 8-page window on
// one drive turned ~8% of a looping scan's cross-pass hits back into reads).
const DefaultReadAheadPerDrive = 2

// loadOp tracks one in-flight page load — a demand miss or a prefetch. It
// lives in the set's loading map while the read is outstanding; concurrent
// pins of the page coalesce onto it single-flight style and share its
// outcome, so N racing pinners of one page cost one disk read, and a failed
// read fails every waiter instead of fanning out into N retries. All fields
// are guarded by the owning set's mutex.
type loadOp struct {
	done bool  // outcome published; the op has left the loading map
	err  error // the read's outcome, seen by every coalesced waiter
}

// loadPipeline fans page loads out across the disk array with one bounded
// queue — and its lazy reader goroutines — per drive, the read-side twin of
// the spill pipeline: the paged file layer places pages round-robin across
// the array, so N drives deliver ~N× read bandwidth to a scan whose window
// keeps them all busy. Two reads of a drive run at once and may finish in
// either order; each publishes its own page through finishLoad. The queues
// are separate from the spill writers' so a burst of speculative reads never
// queues behind victim write-backs (and vice versa); on one drive, reads and
// writes still share the drive's time model, as they would the device.
type loadPipeline struct {
	bp     *BufferPool
	queues []*disk.Queue // one per drive, indexed like the Array
}

func newLoadPipeline(bp *BufferPool, arr *disk.Array) *loadPipeline {
	lp := &loadPipeline{bp: bp, queues: make([]*disk.Queue, arr.Len())}
	for i := range lp.queues {
		lp.queues[i] = disk.NewQueue(loadQueueDepth)
	}
	return lp
}

// submit queues one speculative page read on the page's drive. The frame at
// off is already carved and charged to the set; the drive's reader fills it
// and publishes the outcome through finishLoad.
func (lp *loadPipeline) submit(s *LocalitySet, num, off int64, loc pfs.PageLoc, op *loadOp) {
	bp := lp.bp
	bp.stats.PrefetchesIssued.Add(1)
	lp.queues[loc.Drive].Submit(func() {
		err := s.file.ReadPageAt(loc, num, bp.arena.Slice(off, s.pageSize))
		s.finishLoad(num, op, off, err, true)
	})
}

// Prefetch hints that the given pages are about to be read, scheduling
// asynchronous loads of any that are neither resident nor already loading
// through the per-drive read queues. Completed frames enter the resident map
// at pin count zero (a later Pin is a hit; the evictor may also reclaim them
// first if the guess was wrong), and in-flight ones are registered in the
// loading map so a racing Pin coalesces onto the read instead of issuing its
// own. Speculation is best-effort: pages with no on-disk image, and pages of a
// read-once set that were already consumed, are skipped, a set at its memory
// quota is left alone, and the first allocation failure stops the whole
// batch — a prefetch never blocks waiting for memory. A
// refused batch does charge its unfulfilled pages to the eviction daemon's
// background reclaim budget (see noteStarved), so callers that re-hint as
// they advance — the sequential scan cursor does — find frames freed for the
// retried window instead of stalling speculation for the rest of the scan.
// Returns the number of reads issued.
//
// A sequential scan's cursor generates these hints automatically for the
// pages ahead of its frontier (see PoolConfig.ReadAhead); Prefetch is the
// explicit surface for callers that know more than the pattern tags say, and
// it works even with automatic read-ahead disabled.
func (s *LocalitySet) Prefetch(nums []int64) int {
	issued := 0
	for i, num := range nums {
		ok, stop, starved := s.prefetchOne(num)
		if ok {
			issued++
		}
		if starved {
			// The allocator refused the frame. Arm the eviction daemon's
			// speculative-reclaim budget with the unfulfilled tail of this
			// batch, so background reclaim frees enough for the retried
			// window, not just one frame per batch.
			s.pool.noteStarved(s, s.shortfall(nums[i:]))
		}
		if stop {
			break
		}
	}
	return issued
}

// shortfall returns the pages of nums that are neither resident nor loading
// (nor consumed): what a refused hint batch still wants from the pool.
func (s *LocalitySet) shortfall(nums []int64) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var want []int64
	for _, num := range nums {
		if num >= 0 && num < s.nextNum && s.resident[num] == nil && s.loading[num] == nil && !s.isConsumed(num) {
			want = append(want, num)
		}
	}
	return want
}

// prefetchOne schedules one speculative load; stop reports that the set (or
// the pool's memory) cannot accept further speculation right now, and
// starved that the reason was specifically an allocation refusal worth
// charging to the eviction daemon's speculative-reclaim budget.
func (s *LocalitySet) prefetchOne(num int64) (issued, stop, starved bool) {
	bp := s.pool
	s.mu.Lock()
	if s.dropped {
		s.mu.Unlock()
		return false, true, false
	}
	if num < 0 || num >= s.nextNum {
		s.mu.Unlock()
		return false, false, false
	}
	if _, ok := s.resident[num]; ok || s.loading[num] != nil || s.isConsumed(num) {
		// Nothing to read ahead — least of all a consumed page's stale image.
		s.mu.Unlock()
		return false, false, false
	}
	loc, err := s.file.Locate(num)
	if err != nil {
		// No on-disk image: the page only ever lived in memory (a transient
		// set that never spilled it) and a demand Pin would fail too — there
		// is nothing to read ahead.
		s.mu.Unlock()
		return false, false, false
	}
	op := &loadOp{}
	s.register(num, op)
	s.mu.Unlock()

	off, err := bp.tryAllocMem(s, s.pageSize)
	if err != nil {
		// No frame without forcing reclaim: retract the op (waiters, if any
		// raced in, fall back to their own demand load) and stop hinting.
		// Only pool-memory refusals count as starved — a set at its own
		// quota can't be helped by evicting anyone.
		s.cancelLoad(num, op)
		return false, true, !errors.Is(err, errSpecQuota)
	}
	bp.load.submit(s, num, off, loc, op)
	return true, false, false
}

// ReadAhead returns the set's effective automatic read-ahead window in
// pages: the pool's configured window for sets with a declared sequential
// reading pattern, 0 otherwise.
func (s *LocalitySet) ReadAhead() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs.Reading != SequentialRead {
		return 0
	}
	return s.pool.readAhead
}

// finishLoad publishes a load's outcome: on success the frame enters the
// resident map — pinned for a demand load, at pin count zero and flagged
// speculative for a prefetch — and on failure (or if the set was dropped
// mid-read) the frame and its admission charge are released exactly once,
// with the error recorded on the op for every coalesced waiter. The frame is
// released before waiters are woken, so a DropSet that waited out this load
// observes the residency gauge already unwound.
func (s *LocalitySet) finishLoad(num int64, op *loadOp, off int64, readErr error, prefetch bool) (*Page, error) {
	bp := s.pool
	s.mu.Lock()
	op.done = true
	op.err = readErr
	if readErr != nil || s.dropped {
		s.dropFrame(off)
		s.unregister(num)
		s.cond.Broadcast()
		s.mu.Unlock()
		if bp.evictor.waiters.Load() > 0 {
			// The frame just went back to the allocator; let blocked
			// allocations retry.
			bp.evictor.broadcast(nil)
		}
		if readErr != nil {
			return nil, fmt.Errorf("core: load page %d of set %q: %w", num, s.name, readErr)
		}
		return nil, fmt.Errorf("core: set %q is dropped", s.name)
	}
	s.stats.LoadReads.Add(1)
	tick := bp.nextTick()
	p := &Page{set: s, num: num, off: off, size: s.pageSize, lastRef: tick}
	if prefetch {
		// A speculative frame is not an application access: it does not bump
		// the set's AccessRecency or the demand-load counter, and it stays
		// flagged until a Pin actually references it (the hit/wasted split
		// the prefetch stats report).
		p.prefetched = true
	} else {
		p.pin = 1
		s.lastAccess = tick
		bp.stats.Loads.Add(1)
	}
	s.resident[num] = p
	s.unregister(num)
	s.cond.Broadcast()
	s.mu.Unlock()
	if prefetch && bp.evictor.waiters.Load() > 0 {
		// The speculative frame enters the pool already evictable (pin count
		// zero), and the allocation it displaced may be blocked right now:
		// at a tiny pool's scan boundary the whole window can be in flight
		// while the demand pins behind it wait, the daemon's pass finds
		// nothing evictable and parks, and without this wakeup nobody wakes
		// the waiters — their retry re-kicks the daemon, which can now
		// reclaim this very frame if the guess was wrong.
		bp.evictor.broadcast(nil)
	}
	return p, nil
}

// register and unregister enter and retire a load in the set's loading map
// and the pool's LoadsInFlight gauge together, under s.mu: a DropSet that
// waited for the map to empty reads the gauge at zero, and a load retires
// only after its frame is published or released.
func (s *LocalitySet) register(num int64, op *loadOp) {
	s.loading[num] = op
	s.pool.stats.LoadsInFlight.Add(1)
}

func (s *LocalitySet) unregister(num int64) {
	delete(s.loading, num)
	s.pool.stats.LoadsInFlight.Add(-1)
}

// cancelLoad retracts a registered load whose frame never materialized (the
// allocator refused or timed out). No error is recorded: coalesced waiters
// wake, find the page neither resident nor loading, and fall through to
// their own demand load — which may block on reclaim where the canceled
// speculation would not.
func (s *LocalitySet) cancelLoad(num int64, op *loadOp) {
	s.mu.Lock()
	s.unregister(num)
	op.done = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
