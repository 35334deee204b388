package core

import (
	"math"
	"sort"
)

// PolicyView is an immutable snapshot of the buffer pool taken by the
// eviction daemon just before it consults the paging policy. Policies
// compute over the snapshot without holding any pool or set lock: the
// locking model is invisible to them, and a slow policy can never stall
// Pin/Unpin traffic. Victim choices are returned as PageRefs; the daemon
// re-validates each one against live state (the page may have been pinned
// or dropped since the snapshot) before actually evicting it.
type PolicyView struct {
	// Capacity is the pool's arena size in bytes.
	Capacity int64
	// Used is the number of arena bytes allocated when the snapshot was
	// taken (including allocator headers).
	Used int64
	// Tick is the pool's logical clock at snapshot time.
	Tick int64
	// Sets holds one snapshot per live locality set.
	Sets []*SetSnapshot
}

// SetSnapshot is one locality set's state within a PolicyView.
type SetSnapshot struct {
	// Name is the set's name, for diagnostics.
	Name string
	// Attrs is the set's attribute tag vector (Table 1).
	Attrs Attributes
	// PageSize is the fixed page size shared by the set's pages.
	PageSize int64
	// LastAccess is the set-level AccessRecency tick.
	LastAccess int64
	// Resident is the number of pages cached at snapshot time.
	Resident int
	// ResidentBytes is the set's resident-page footprint in bytes at
	// snapshot time.
	ResidentBytes int64
	// PendingBytes is allocation demand blocked on this set's behalf at
	// snapshot time; it counts toward the set's footprint in Overage, so a
	// tenant at its entitlement asking for one more page self-evicts for it
	// instead of stealing from an under-quota set.
	PendingBytes int64
	// Entitlement is the set's fair share of the arena in bytes: its
	// memory quota, or its weight-proportional share, or Capacity when the
	// set is unconstrained. The daemon reclaims from sets above their
	// entitlement before any set below it; policies may also use the ratio
	// to rank victims.
	Entitlement int64
	// TotalPages is the total logical page count (resident or spilled),
	// which DBMIN's looping/random size estimates use.
	TotalPages int64
	// Evictable lists the set's pages that were evictable at snapshot time:
	// resident, unpinned, and not already being evicted. Empty for sets
	// whose Location attribute pins them in memory.
	Evictable []PageRef

	set     *LocalitySet // live handle for victim resolution
	quota   int64        // explicit resident-byte cap, 0 = none
	leaving int64        // resident bytes already claimed for eviction
}

// Overage reports how many bytes the set's footprint — resident pages not
// already on their way out, plus blocked allocation demand — exceeds its
// entitlement by; zero or negative means the set is within its fair share.
func (s *SetSnapshot) Overage() int64 {
	return s.ResidentBytes - s.leaving + s.PendingBytes - s.Entitlement
}

// PageRef identifies one evictable page within a PolicyView.
type PageRef struct {
	// Set is the snapshot of the page's owning locality set.
	Set *SetSnapshot
	// Num is the page's sequence number within its set.
	Num int64
	// LastRef is the page's last-access tick.
	LastRef int64
	// Dirty reports whether the page held unpersisted modifications.
	Dirty bool
	// Speculative reports that the prefetcher loaded the page and nothing
	// has referenced it yet. Always clean (a speculative frame is a copy of
	// its on-disk image), so reclaiming one costs no write-back.
	Speculative bool
}

// EvictablePages flattens the evictable pages of every set, the raw
// material for global policies like LRU and MRU.
func (v *PolicyView) EvictablePages() []PageRef {
	var out []PageRef
	for _, s := range v.Sets {
		out = append(out, s.Evictable...)
	}
	return out
}

// The §6 cost model's profiled per-page costs v_r and v_w and its horizon t.
// Only the ratio v_r/v_w orders victims, and no workload here has shown a
// ratio other than 1 to matter, so all three are the constants of §6's
// linear-approximation regime rather than pool settings.
const (
	costHorizon = 1.0 // t, in ticks
	readCost    = 1.0 // v_r: time to read one page from disk
	writeCost   = 1.0 // v_w: time to write one page to disk
)

// PageCost evaluates the expected cost of evicting page p within the
// horizon t (§6):
//
//	cost = c_w + p_reuse · c_r
//	c_w  = d · v_w            (d = 1 iff the page must be written back)
//	c_r  = v_r · w_r          (w_r > 1 for random reading patterns)
//	p_reuse = 1 − e^{−λt},  λ = 1 / (t_now − t_ref)
func (v *PolicyView) PageCost(p PageRef) float64 {
	attrs := p.Set.Attrs
	var cw float64
	if p.Dirty && !attrs.LifetimeEnded {
		// Only write-back data can be dirty at eviction time; write-through
		// pages were persisted at unpin (d=0 for write-through).
		cw = writeCost
	}
	cr := readCost * attrs.ReadPenalty()
	return cw + v.reuseProbability(p.LastRef)*cr
}

// reuseProbability computes p_reuse from the time since last reference,
// relative to the snapshot's tick.
func (v *PolicyView) reuseProbability(lastRef int64) float64 {
	delta := v.Tick - lastRef
	if delta < 1 {
		delta = 1
	}
	lambda := 1.0 / float64(delta)
	return 1 - math.Exp(-lambda*costHorizon)
}

// NextVictim returns the page the set's own replacement strategy (MRU/LRU,
// derived from its access-pattern tags) would evict next; ok is false if
// nothing is evictable.
func (s *SetSnapshot) NextVictim() (PageRef, bool) {
	if len(s.Evictable) == 0 {
		return PageRef{}, false
	}
	mru := s.Attrs.Strategy() == EvictMRU
	best := s.Evictable[0]
	for _, p := range s.Evictable[1:] {
		if mru && p.LastRef > best.LastRef || !mru && p.LastRef < best.LastRef {
			best = p
		}
	}
	return best, true
}

// VictimBatch returns the pages one eviction round takes from this set: a
// single page while the set is being written (evicting fresh output is
// costly), or 10% of the evictable pages for read-only sets, in the set's
// strategy order (§6).
//
// Speculative frames get attribute-driven treatment. While the set is idle
// (no current read operation), they sort first: nobody is consuming the
// window, so never-referenced speculation is the cheapest memory in the set
// — clean, and with no evidence of reuse. While a read is in progress the
// order inverts — the window is about to be consumed, so the round takes
// already-referenced pages behind the cursor first and touches the window
// only when nothing else is left (evicting it would just turn the same
// reads into demand misses again).
func (s *SetSnapshot) VictimBatch() []PageRef {
	if len(s.Evictable) == 0 {
		return nil
	}
	cands := append([]PageRef(nil), s.Evictable...)
	mru := s.Attrs.Strategy() == EvictMRU
	reading := s.Attrs.CurrentOp == OpRead || s.Attrs.CurrentOp == OpReadWrite
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Speculative != cands[j].Speculative {
			if reading {
				return !cands[i].Speculative
			}
			return cands[i].Speculative
		}
		if mru {
			return cands[i].LastRef > cands[j].LastRef
		}
		return cands[i].LastRef < cands[j].LastRef
	})
	n := 1
	if !s.Attrs.CurrentOp.involvesWrite() {
		n = (len(cands) + 9) / 10 // ceil(10%)
	}
	return cands[:n]
}

// snapshot builds a PolicyView. It takes the registry lock briefly to list
// the sets, then each set's lock in turn — never two locks at once.
func (bp *BufferPool) snapshot() *PolicyView {
	bp.regMu.RLock()
	sets := make([]*LocalitySet, 0, len(bp.sets))
	for _, s := range bp.sets {
		sets = append(sets, s)
	}
	bp.regMu.RUnlock()

	view := &PolicyView{
		Capacity: bp.cfg.Memory,
		Used:     bp.alloc.Used(),
		Tick:     bp.tick.Load(),
	}
	// Entitlements: one weight sum over the listed sets (weights are
	// immutable, so a set dropped between here and its lock below only
	// shrinks other sets' nominal shares by a stale epsilon).
	var totalWeight float64
	for _, s := range sets {
		totalWeight += s.weight
	}
	for _, s := range sets {
		s.mu.Lock()
		if s.dropped {
			s.mu.Unlock()
			continue
		}
		ss := &SetSnapshot{
			Name:          s.name,
			Attrs:         s.attrs,
			PageSize:      s.pageSize,
			LastAccess:    s.lastAccess,
			Resident:      len(s.resident),
			ResidentBytes: s.residentBytes.Load(),
			PendingBytes:  s.pendingBytes.Load(),
			Entitlement:   bp.entitlementWith(totalWeight, s),
			TotalPages:    s.nextNum,
			set:           s,
			quota:         s.quota,
		}
		if !s.attrs.Pinned {
			for _, p := range s.resident {
				if p.evicting {
					ss.leaving += p.size
				} else if p.pin == 0 {
					ss.Evictable = append(ss.Evictable, PageRef{
						Set:         ss,
						Num:         p.num,
						LastRef:     p.lastRef,
						Dirty:       p.dirty,
						Speculative: p.prefetched,
					})
				}
			}
		}
		s.mu.Unlock()
		view.Sets = append(view.Sets, ss)
	}
	return view
}

// overEntitled returns a derived view restricted to the sets holding more
// than their entitlement and having something evictable — the fairness
// pre-pass input — or nil when every set is within its share. With
// quotaOnly set (no allocation pressure), only sets over an explicit
// MemoryQuota count: weight entitlements never trigger spilling on their
// own. The filtered view shares the receiver's SetSnapshots, so the
// PageRefs a policy returns from it resolve identically.
func (v *PolicyView) overEntitled(quotaOnly bool) *PolicyView {
	var over []*SetSnapshot
	for _, s := range v.Sets {
		if s.Overage() <= 0 || len(s.Evictable) == 0 {
			continue
		}
		if quotaOnly && s.quota == 0 {
			continue
		}
		over = append(over, s)
	}
	if over == nil {
		return nil
	}
	w := *v
	w.Sets = over
	return &w
}
