package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pangea/internal/disk"
	"pangea/internal/locking"
	"pangea/internal/memory"
	"pangea/internal/pfs"
)

// Policy selects eviction victims when the buffer pool runs out of memory.
// SelectVictims receives an immutable PolicyView snapshot and runs without
// any pool lock held; it may retain nothing from the view after returning.
// Returning an empty slice means nothing is evictable right now; returning
// an error aborts the allocations waiting on memory (DBMIN's blocking
// behaviour surfaces this way).
type Policy interface {
	Name() string
	SelectVictims(view *PolicyView) ([]PageRef, error)
}

// PoolConfig configures one node's unified buffer pool.
type PoolConfig struct {
	// Memory is the arena size in bytes. On unix the arena is one anonymous
	// mapping, like the paper's anonymous-mmap region (§5); the pool holds
	// the memory it has touched, not Memory.
	Memory int64
	// Array is the node's set of disk drives.
	Array *disk.Array
	// Policy picks eviction victims; nil selects the paper's data-aware
	// policy.
	Policy Policy
	// AllocTimeout bounds how long an allocation waits without progress
	// (no memory reclaimed, no page unpinned) before failing. Defaults
	// to 5s.
	AllocTimeout time.Duration
	// ReadAhead is the automatic prefetch window in pages for sets with a
	// declared sequential reading pattern: as a scan's cursor advances
	// (services.PageIteratorsFor) it schedules asynchronous reads of the next
	// ReadAhead pages of its page list through the per-drive read queues.
	// 0 selects the default of DefaultReadAheadPerDrive pages per drive in
	// the array (the window's job is to keep every drive busy — deeper
	// speculation only displaces pages a looping reader would have re-hit);
	// negative disables automatic read-ahead (explicit LocalitySet.Prefetch
	// hints still work).
	ReadAhead int
}

// ErrNoEvictable is returned when an allocation cannot be satisfied because
// every resident page is pinned or the policy refuses to evict.
var ErrNoEvictable = errors.New("core: buffer pool exhausted and nothing evictable")

// BufferPool is the node-local unified buffer pool (§5): one shared memory
// region holding user data, job data and execution data for every
// application on the node, with a TLSF allocator carving variable-sized
// pages out of it and a single paging policy across all locality sets.
//
// Concurrency model: the pool itself holds only a registry lock (regMu,
// guarding the set tables) and atomics (logical clock, peak usage). All
// page state — resident maps, pin counts, dirty flags, recency — is guarded
// by the owning LocalitySet's lock, so traffic on different sets never
// contends. Spill I/O is started by a background eviction daemon and ends in
// the per-drive writers' completions; allocators block on the daemon's
// broadcast channel instead of polling.
type BufferPool struct {
	cfg   PoolConfig
	arena *memory.Arena
	alloc *memory.ShardedTLSF
	array *disk.Array

	regMu    locking.RWMutex
	sets     map[SetID]*LocalitySet
	byName   map[string]*LocalitySet
	reserved map[string]bool // names mid-CreateSet, not yet in byName
	freeIDs  []SetID         // IDs returned by failed CreateSet calls
	nextID   SetID

	evictor *evictor
	spill   *spillPipeline
	load    *loadPipeline

	// readAhead is the resolved PoolConfig.ReadAhead window (0 = automatic
	// read-ahead disabled). Immutable after NewPool.
	readAhead int
	// lowWater and highWater are the eviction daemon's free-memory
	// watermarks, Memory/16 and Memory/8, compared against the allocator's
	// free bytes: below lowWater the daemon starts evicting in the
	// background. While allocations are blocked it keeps going until free
	// memory reaches highWater; with no waiter left it stops as soon as free
	// memory is back above lowWater, so it never spills dirty pages nobody is
	// waiting for just to reach the higher mark.
	lowWater, highWater int64

	// tick is written by every page access on every core. The pads give it
	// a cache line of its own, so a pin on one core does not take the
	// read-mostly fields beside it (evictor, readAhead) from the others.
	_    [64]byte
	tick atomic.Int64
	_    [64]byte
	peak atomic.Int64

	// loadStarved is the speculative-reclaim budget, in bytes: how much
	// memory prefetch hints asked for and were refused since the eviction
	// daemon last caught up. The daemon treats it as watermark pressure and
	// pays it down as it frees memory (see noteStarved/consumeStarved), so a
	// sequential scan's read-ahead window keeps rolling instead of stalling
	// the moment the pool fills.
	loadStarved atomic.Int64
	// starvedPages holds the pages the unpaid part of loadStarved was
	// charged for; starvedMu guards it and orders every budget mutation.
	starvedMu    sync.Mutex
	starvedPages map[PageID]struct{}

	stats PoolStats
	// dropped sums the counters of the sets DropSet removed; it changes only
	// under regMu's write lock (foldDropped).
	dropped SetStats
}

// NewPool builds a buffer pool over a fresh arena.
func NewPool(cfg PoolConfig) (*BufferPool, error) {
	if cfg.Memory <= 0 {
		return nil, fmt.Errorf("core: invalid pool memory %d", cfg.Memory)
	}
	if cfg.Array == nil {
		return nil, errors.New("core: pool requires a disk array")
	}
	if cfg.Policy == nil {
		cfg.Policy = NewDataAware()
	}
	if cfg.AllocTimeout == 0 {
		cfg.AllocTimeout = 5 * time.Second
	}
	arena := memory.NewArena(cfg.Memory)
	bp := &BufferPool{
		cfg:      cfg,
		arena:    arena,
		array:    cfg.Array,
		sets:     make(map[SetID]*LocalitySet),
		byName:   make(map[string]*LocalitySet),
		reserved: make(map[string]bool),

		lowWater:  cfg.Memory / 16,
		highWater: cfg.Memory / 8,

		starvedPages: make(map[PageID]struct{}),
	}
	bp.regMu.Init(locking.RankRegistry)
	bp.readAhead = cfg.ReadAhead
	if bp.readAhead == 0 {
		bp.readAhead = DefaultReadAheadPerDrive * cfg.Array.Len()
	}
	if bp.readAhead < 0 {
		bp.readAhead = 0
	}
	bp.alloc = memory.NewShardedTLSF(arena, 0)
	bp.evictor = newEvictor(bp)
	bp.spill = newSpillPipeline(bp, cfg.Array)
	bp.load = newLoadPipeline(bp, cfg.Array)
	return bp, nil
}

// PageLayout selects how records are arranged inside a set's pages.
type PageLayout uint8

const (
	// LayoutRow is the seed behaviour: records stored contiguously with
	// length framing (services row pages). The zero value, so existing
	// specs are untouched.
	LayoutRow PageLayout = iota
	// LayoutColumnar stores fixed-width records transposed into per-column
	// segments within each page, for vectorized scans. Requires
	// SetSpec.Columns.
	LayoutColumnar
)

func (l PageLayout) String() string {
	switch l {
	case LayoutRow:
		return "row"
	case LayoutColumnar:
		return "columnar"
	default:
		return fmt.Sprintf("layout(%d)", uint8(l))
	}
}

// SetSpec describes a locality set to create.
type SetSpec struct {
	Name       string
	PageSize   int64
	Durability DurabilityType // WriteBack unless specified
	Pinned     bool           // Location attribute

	// Layout selects the page layout; LayoutRow (zero) keeps the seed's
	// record-framed pages. Columnar sets additionally need Columns.
	Layout PageLayout
	// Columns gives the fixed byte width of each column for LayoutColumnar
	// sets (the record size is their sum). Must be empty for LayoutRow;
	// column names and offsets live in the services schema descriptor, the
	// pool only needs the widths to lay segments out.
	Columns []int

	// MemoryQuota caps the set's resident bytes (admission control): growth
	// past the quota triggers self-eviction — the daemon reclaims the
	// overage from this set, and under pool-wide pressure over-quota sets
	// are reclaimed from before any under-quota tenant. 0 means no quota.
	MemoryQuota int64
	// Weight is the set's fair-share weight: under memory pressure the set
	// is entitled to Weight/ΣWeights of the arena (summed over all weighted
	// sets), and sets holding more than their entitlement are reclaimed
	// from first. Unlike MemoryQuota, a weight entitlement is enforced only
	// under pressure — a weighted set may use idle memory freely. 0 leaves
	// the set unweighted (entitled to the whole arena, the pre-admission
	// behaviour).
	Weight float64
}

// CreateSet registers a new locality set and its file instance. The name
// and ID are reserved atomically before the pfs file is created, so two
// concurrent CreateSet calls for the same name can never both pass the
// duplicate check (the loser would otherwise become an unreachable orphan
// in the registry with a leaked pfs file); if pfs.Create fails, the
// reservation is released and the ID recycled.
func (bp *BufferPool) CreateSet(spec SetSpec) (*LocalitySet, error) {
	if spec.PageSize <= 0 || spec.PageSize > bp.cfg.Memory {
		return nil, fmt.Errorf("core: page size %d invalid for pool of %d bytes", spec.PageSize, bp.cfg.Memory)
	}
	// Reject sizes the allocator can never hold, or NewPage would block
	// for the full AllocTimeout on an empty pool and fail with a misleading
	// ErrNoEvictable.
	if max := bp.alloc.MaxAlloc(); spec.PageSize > max {
		return nil, fmt.Errorf("core: page size %d exceeds the %d-byte allocation maximum of a pool of %d bytes",
			spec.PageSize, max, bp.cfg.Memory)
	}
	if spec.MemoryQuota < 0 || spec.Weight < 0 {
		return nil, fmt.Errorf("core: set %q: negative quota/weight (%d, %g)", spec.Name, spec.MemoryQuota, spec.Weight)
	}
	if spec.MemoryQuota > 0 && spec.MemoryQuota < spec.PageSize {
		return nil, fmt.Errorf("core: set %q: quota %d below one %d-byte page", spec.Name, spec.MemoryQuota, spec.PageSize)
	}
	if spec.MemoryQuota > bp.cfg.Memory {
		return nil, fmt.Errorf("core: set %q: quota %d exceeds the %d-byte pool", spec.Name, spec.MemoryQuota, bp.cfg.Memory)
	}
	switch spec.Layout {
	case LayoutRow:
		if len(spec.Columns) > 0 {
			return nil, fmt.Errorf("core: set %q: column widths given for a row-layout set", spec.Name)
		}
	case LayoutColumnar:
		if len(spec.Columns) == 0 {
			return nil, fmt.Errorf("core: set %q: columnar layout needs column widths", spec.Name)
		}
		rowSize := int64(0)
		for i, w := range spec.Columns {
			if w <= 0 {
				return nil, fmt.Errorf("core: set %q: column %d has width %d", spec.Name, i, w)
			}
			rowSize += int64(w)
		}
		// The columnar page header is 16 bytes plus one u32 width per
		// column (see services); at least one row must fit under it.
		if hdr := int64(16 + 4*len(spec.Columns)); hdr+rowSize > spec.PageSize {
			return nil, fmt.Errorf("core: set %q: page size %d below columnar header %d + one %d-byte row",
				spec.Name, spec.PageSize, hdr, rowSize)
		}
	default:
		return nil, fmt.Errorf("core: set %q: unknown page layout %d", spec.Name, spec.Layout)
	}
	bp.regMu.Lock()
	if _, dup := bp.byName[spec.Name]; dup || bp.reserved[spec.Name] {
		bp.regMu.Unlock()
		return nil, fmt.Errorf("core: set %q already exists", spec.Name)
	}
	bp.reserved[spec.Name] = true
	var id SetID
	if n := len(bp.freeIDs); n > 0 {
		id = bp.freeIDs[n-1]
		bp.freeIDs = bp.freeIDs[:n-1]
	} else {
		id = bp.nextID
		bp.nextID++
	}
	bp.regMu.Unlock()

	file, err := pfs.Create(bp.array, fmt.Sprintf("%s.%d", spec.Name, id), spec.PageSize)
	if err != nil {
		bp.regMu.Lock()
		delete(bp.reserved, spec.Name)
		bp.freeIDs = append(bp.freeIDs, id)
		bp.regMu.Unlock()
		return nil, err
	}
	s := &LocalitySet{
		pool:     bp,
		id:       id,
		name:     spec.Name,
		pageSize: spec.PageSize,
		layout:   spec.Layout,
		columns:  append([]int(nil), spec.Columns...),
		quota:    spec.MemoryQuota,
		weight:   spec.Weight,
		attrs:    Attributes{Durability: spec.Durability, Pinned: spec.Pinned},
		file:     file,
		resident: make(map[int64]*Page),
		loading:  make(map[int64]*loadOp),
	}
	s.mu.Init(locking.RankSet)
	s.cond = sync.NewCond(&s.mu)
	bp.regMu.Lock()
	delete(bp.reserved, spec.Name)
	bp.sets[id] = s
	bp.byName[spec.Name] = s
	bp.regMu.Unlock()
	return s, nil
}

// GetSet looks a locality set up by name.
func (bp *BufferPool) GetSet(name string) (*LocalitySet, bool) {
	bp.regMu.RLock()
	defer bp.regMu.RUnlock()
	s, ok := bp.byName[name]
	return s, ok
}

// DropSet releases all of a set's memory and removes its file instance. The
// caller must have unpinned every page first. DropSet waits out any
// in-flight eviction of the set's pages (the daemon may be spilling their
// bytes) and any in-flight load — demand or prefetch, whose reader still
// holds a carved frame — before recycling the memory, so when it returns
// every frame and residency charge has been released exactly once.
func (bp *BufferPool) DropSet(s *LocalitySet) error {
	s.mu.Lock()
	if s.dropped {
		s.mu.Unlock()
		return nil
	}
	for {
		evicting := false
		for _, p := range s.resident {
			if p.pin > 0 {
				num := p.num
				s.mu.Unlock()
				return fmt.Errorf("core: drop set %q: page %d still pinned", s.name, num)
			}
			if p.evicting {
				evicting = true
			}
		}
		if !evicting && len(s.loading) == 0 {
			break
		}
		s.cond.Wait()
	}
	s.dropped = true
	offs := make([]int64, 0, len(s.resident))
	wasted, bytes := int64(0), int64(0)
	for num, p := range s.resident {
		if p.prefetched {
			wasted++
		}
		offs = append(offs, p.off)
		bytes += p.size
		delete(s.resident, num)
	}
	if wasted > 0 {
		bp.stats.PrefetchWasted.Add(wasted)
	}
	// Unwind the residency gauge exactly once per page released here; any
	// in-flight eviction was waited out above, so no page can be released
	// twice. Add (not Store) keeps a double-release visible to the counter
	// invariant the stress tests check.
	s.releaseResident(bytes)
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, off := range offs {
		bp.alloc.Free(off)
	}
	bp.regMu.Lock()
	delete(bp.sets, s.id)
	delete(bp.byName, s.name)
	bp.foldDropped(s)
	bp.regMu.Unlock()
	if len(offs) > 0 {
		bp.evictor.broadcast(nil) // memory reclaimed
	}
	return s.file.Remove()
}

// Sets returns a snapshot of the registered locality sets.
func (bp *BufferPool) Sets() []*LocalitySet {
	bp.regMu.RLock()
	defer bp.regMu.RUnlock()
	out := make([]*LocalitySet, 0, len(bp.sets))
	for _, s := range bp.sets {
		out = append(out, s)
	}
	return out
}

// Capacity returns the pool's arena size in bytes.
func (bp *BufferPool) Capacity() int64 { return bp.cfg.Memory }

// UsedBytes returns the bytes currently allocated from the arena.
func (bp *BufferPool) UsedBytes() int64 { return bp.alloc.Used() }

// PeakBytes returns the high-water mark of arena usage; the memory-usage
// comparison of Fig 4 reports this.
func (bp *BufferPool) PeakBytes() int64 { return bp.peak.Load() }

// Stats exposes the pool's activity counters.
func (bp *BufferPool) Stats() *PoolStats { return &bp.stats }

// Array returns the node's disk array.
func (bp *BufferPool) Array() *disk.Array { return bp.array }

// SharedMemory exposes the pool's arena. The data proxy hands arena offsets
// to computation threads over the socket so they can touch page bytes
// without copying, the way the paper's computation processes map the
// storage process's shared memory region (§5, Fig 2). Here the threads run
// in the pool's own process: the arena's mapping is private to it.
func (bp *BufferPool) SharedMemory() *memory.Arena { return bp.arena }

// entitlement computes a set's fair share of the arena: its explicit
// quota if one is set, else a weight-proportional share of the arena among
// all weighted sets, else the whole arena. Only quota reads hit the alloc
// hot path (via LocalitySet.noteResident); the weight sum is computed here
// on demand for the daemon's snapshots and the per-set gauges.
func (bp *BufferPool) entitlement(s *LocalitySet) int64 {
	if s.quota > 0 || s.weight <= 0 {
		return bp.entitlementWith(0, s)
	}
	bp.regMu.RLock()
	var total float64
	for _, o := range bp.sets {
		total += o.weight
	}
	bp.regMu.RUnlock()
	return bp.entitlementWith(total, s)
}

// entitlementWith is the single home of the entitlement rules — quota
// overrides weight, weight share = Weight/totalWeight of the arena,
// unconstrained sets get the whole arena — shared by the on-demand gauge
// above and the daemon's snapshot (which precomputes totalWeight once per
// round).
func (bp *BufferPool) entitlementWith(totalWeight float64, s *LocalitySet) int64 {
	if s.quota > 0 {
		return s.quota
	}
	if s.weight <= 0 || totalWeight <= 0 {
		return bp.cfg.Memory
	}
	return int64(float64(bp.cfg.Memory) * s.weight / totalWeight)
}

// anyOverQuota reports whether some set holds more resident bytes than its
// hard quota. The eviction daemon uses it to justify self-eviction rounds
// when no allocation is blocked and free memory looks healthy; weight
// entitlements deliberately don't count here — they matter only under
// pressure, when the fairness pass in evictOnce orders the victims.
func (bp *BufferPool) anyOverQuota() bool {
	bp.regMu.RLock()
	defer bp.regMu.RUnlock()
	for _, s := range bp.sets {
		if s.quota > 0 && s.residentBytes.Load() > s.quota {
			return true
		}
	}
	return false
}

// nextTick advances the logical clock; every page access calls it.
func (bp *BufferPool) nextTick() int64 { return bp.tick.Add(1) }

// notePeak records a new high-water mark after a successful allocation.
func (bp *BufferPool) notePeak() {
	u := bp.alloc.Used()
	for {
		old := bp.peak.Load()
		if u <= old || bp.peak.CompareAndSwap(old, u) {
			return
		}
	}
}

// allocMem carves size bytes out of the arena for set s, with the set's ID
// as the allocator's affinity hint. On pressure it kicks the eviction daemon
// and blocks on its broadcast channel until memory is reclaimed, the policy
// reports an error, or the deadline passes — no spill I/O ever runs on this
// path.
func (bp *BufferPool) allocMem(s *LocalitySet, size int64) (int64, error) {
	e := bp.evictor
	hint := int(s.id)
	// charge books the carved frame against the set's admission gauge the
	// instant the allocation lands — before the page is inserted — so the
	// daemon can never snapshot a set mid-growth as innocently under quota;
	// quota overshoot kicks the self-eviction round right here.
	charge := func(off int64) (int64, error) {
		bp.notePeak()
		if res := s.chargeResident(size); s.quota > 0 && res > s.quota {
			e.kick()
		}
		return off, nil
	}
	if off, err := bp.alloc.AllocAffinity(size, hint); err == nil {
		if bp.alloc.FreeBytes() < bp.lowWater {
			e.kick()
		}
		return charge(off)
	}

	e.waiters.Add(1)
	defer e.waiters.Add(-1)
	// Count the blocked demand toward the set's fairness footprint (see
	// LocalitySet.pendingBytes).
	s.chargePending(size)
	defer s.releasePending(size)
	timer := time.NewTimer(bp.cfg.AllocTimeout)
	defer timer.Stop()
	for {
		// Observe before the attempt: any reclaim after this point closes
		// ch, so the retry cannot miss it.
		ch, seq := e.observe()
		off, err := bp.alloc.AllocAffinity(size, hint)
		if err == nil {
			return charge(off)
		}
		e.demand(seq)
		select {
		case <-ch:
			// Retry before consulting errSince: a partially failed spill
			// round records its first error but still releases the victims
			// whose writes landed, and freed memory that satisfies this
			// allocation beats reporting another victim's I/O failure. An
			// allocator that stays stuck keeps seeing the error — every
			// failed retry re-kicks the daemon, whose next failing round
			// re-records it.
			if off, aerr := bp.alloc.AllocAffinity(size, hint); aerr == nil {
				return charge(off)
			}
			if err := e.errSince(seq); err != nil {
				return 0, err
			}
			// A broadcast signals progress (memory reclaimed or a page
			// unpinned); rearm the timeout so the deadline only triggers
			// while the pool is genuinely stuck — stalled eviction rounds
			// never broadcast. This mirrors the seed's loop, which checked
			// its deadline only when a round evicted nothing.
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(bp.cfg.AllocTimeout)
		case <-timer.C:
			if off, err := bp.alloc.AllocAffinity(size, hint); err == nil {
				return charge(off)
			}
			// The daemon may have recorded a policy/spill failure in the
			// same instant the deadline fired (both select cases ready);
			// surface the real cause instead of a bare ErrNoEvictable.
			return 0, e.timeoutErr(seq)
		}
	}
}

// tryAllocMem is allocMem's non-blocking sibling for speculative loads: one
// affinity attempt (so prefetched frames get the set's affinity, like
// demand frames) with the same charge-at-carve admission accounting,
// but it never enlists the eviction daemon's waiter machinery — a prefetch
// that cannot get memory is skipped, not paid for with synchronous reclaim
// (the caller records the refusal as starved-budget pressure instead; see
// noteStarved). It also refuses to take a set over its hard quota:
// speculation counts against the tenant's entitlement, so it must fit
// inside it. Like allocMem it kicks the daemon when free memory dips below
// the low watermark, keeping background reclaim ahead of the window.
func (bp *BufferPool) tryAllocMem(s *LocalitySet, size int64) (int64, error) {
	if s.quota > 0 && s.residentBytes.Load()+size > s.quota {
		return 0, fmt.Errorf("%w: set %q at its %d-byte quota", errSpecQuota, s.name, s.quota)
	}
	off, err := bp.alloc.AllocAffinity(size, int(s.id))
	if err != nil {
		return 0, err
	}
	bp.notePeak()
	if res := s.chargeResident(size); s.quota > 0 && res > s.quota {
		// Lost a race against concurrent demand growth: undo rather than
		// let speculation push the tenant over its cap.
		s.releaseResident(size)
		bp.alloc.Free(off)
		return 0, fmt.Errorf("%w: set %q at its %d-byte quota", errSpecQuota, s.name, s.quota)
	}
	if bp.alloc.FreeBytes() < bp.lowWater {
		bp.evictor.kick()
	}
	return off, nil
}

// noteStarved records speculative demand the allocator turned away — pages
// of set s a hint wanted and could not get a frame for — and kicks the
// eviction daemon. The count is a one-shot reclaim budget, not a raised
// watermark: the daemon keeps background rounds alive while free memory is
// below lowWater plus the budget and pays the budget down as it frees
// (consumeStarved), so a burst of starved hints buys one matching burst of
// reclaim and the pressure then decays — a scan that has ended cannot keep
// draining the pool. Charging is idempotent: a scan re-hints its window on
// every step, and a page already charged is not charged again until the
// budget it joined has been paid off — N refused steps ask for one window,
// not N. If the freed memory is consumed by demand instead, the retried
// hints starve again and re-arm the budget. Clamped at pool capacity so a
// pathological hint stream cannot ask for more memory than exists.
func (bp *BufferPool) noteStarved(s *LocalitySet, nums []int64) {
	bp.starvedMu.Lock()
	for _, num := range nums {
		id := PageID{Set: s.id, Num: num}
		if _, charged := bp.starvedPages[id]; charged {
			continue
		}
		bp.starvedPages[id] = struct{}{}
		if bp.loadStarved.Add(s.pageSize) > bp.cfg.Memory {
			bp.loadStarved.Store(bp.cfg.Memory)
		}
	}
	bp.starvedMu.Unlock()
	bp.evictor.kick()
}

// consumeStarved pays freed bytes against the speculative-reclaim budget;
// paying it off forgets which pages it was charged for.
func (bp *BufferPool) consumeStarved(freed int64) {
	if bp.loadStarved.Load() <= 0 {
		return
	}
	bp.starvedMu.Lock()
	if bp.loadStarved.Add(-freed) <= 0 {
		bp.loadStarved.Store(0)
		clear(bp.starvedPages)
	}
	bp.starvedMu.Unlock()
}

// evictOnce runs one round of the paging system (§6) on behalf of the
// eviction daemon and reports whether it claimed any victim. Admission
// control shapes the round: if any set holds more than its entitlement, the
// policy first sees a view restricted to those sets — an over-quota tenant's
// growth reclaims its own overage before it may steal a byte from an
// under-quota one — with the round's take from each set capped at its
// overage. Only when every set is within its share (or the over-entitled
// ones have nothing evictable) does the policy rank the full pool. Without
// allocation pressure — a blocked waiter, free memory (counting write-backs
// in flight as free soon) under the low watermark, or unpaid
// starved-prefetch budget — only hard quotas justify spilling: weight
// entitlements bind solely when someone actually needs the memory.
func (bp *BufferPool) evictOnce() (bool, error) {
	view := bp.snapshot()
	pressure := bp.evictor.waiters.Load() > 0 ||
		bp.evictor.freeSoon() < bp.lowWater+bp.loadStarved.Load()
	if fair := view.overEntitled(!pressure); fair != nil {
		victims, err := bp.cfg.Policy.SelectVictims(fair)
		if err != nil {
			return false, fmt.Errorf("core: paging policy %s: %w", bp.cfg.Policy.Name(), err)
		}
		if bp.evictVictims(capToOverage(victims)) {
			return true, nil
		}
		// The over-entitled sets had nothing reclaimable (pinned or already
		// in flight); fall through to the pool-wide pass, but only under
		// real pressure — a pure quota round must not evict innocents.
	}
	if !pressure {
		return false, nil
	}
	victims, err := bp.cfg.Policy.SelectVictims(view)
	if err != nil {
		return false, fmt.Errorf("core: paging policy %s: %w", bp.cfg.Policy.Name(), err)
	}
	return bp.evictVictims(victims), nil
}

// capToOverage trims a fairness-pass victim list so one round reclaims at
// most each set's overage (always at least one page per selected set),
// keeping self-eviction proportional: a set one page over its share gives
// up one page, not a full 10% policy batch.
func capToOverage(victims []PageRef) []PageRef {
	taken := make(map[*SetSnapshot]int64, 4)
	out := victims[:0]
	for _, ref := range victims {
		if t := taken[ref.Set]; t > 0 && t >= ref.Set.Overage() {
			continue
		}
		taken[ref.Set] += ref.Set.PageSize
		out = append(out, ref)
	}
	return out
}

// evictVictims claims the policy's chosen victims against live state and
// reports whether it claimed any. A clean victim (or one whose set's lifetime
// ended) is released at once; a dirty alive one is handed to its drive's
// spill queue, and the write's completion releases it (settle) — the daemon
// does not wait, so the next round can pick the next victim while every
// drive is writing.
func (bp *BufferPool) evictVictims(victims []PageRef) bool {
	claimed, freed := false, false
	for _, ref := range victims {
		s := ref.Set.set
		s.mu.Lock()
		// Re-validate against live state: the page may have been pinned,
		// evicted or dropped since the snapshot.
		p := s.resident[ref.Num]
		if s.dropped || p == nil || p.pin > 0 || p.evicting {
			s.mu.Unlock()
			continue
		}
		p.evicting = true
		spill := p.dirty && !s.attrs.LifetimeEnded
		s.mu.Unlock()
		claimed = true
		if spill {
			bp.spill.submit(s, p)
		} else {
			bp.settle(s, p, nil)
			freed = true
		}
	}
	if freed {
		bp.evictor.broadcast(nil)
	}
	return claimed
}

// settle ends the eviction claim on p. With the page's image safe on disk
// (or not needed) the frame is recycled; after a failed write-back the page
// stays resident and dirty, so a later round (or a healthy drive) can retry.
// Either way the set's cond is broadcast: Pin, FlushAll and DropSet wait on
// the claim through it.
func (bp *BufferPool) settle(s *LocalitySet, p *Page, writeErr error) {
	s.mu.Lock()
	p.evicting = false
	if writeErr == nil {
		p.dirty = false
		if p.prefetched {
			// Reclaimed before any pin referenced it: the speculation was
			// wrong (or too early).
			p.prefetched = false
			bp.stats.PrefetchWasted.Add(1)
		}
		delete(s.resident, p.num)
		s.releaseResident(p.size)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if writeErr == nil {
		bp.alloc.Free(p.off)
		bp.stats.Evictions.Add(1)
		// Pay the freed frame against the starved-prefetch budget, so
		// speculation-driven passes are one-shot: the budget buys reclaim
		// once and then decays.
		bp.consumeStarved(p.size)
	}
}
