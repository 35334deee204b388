package core

import (
	"fmt"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitEvictorIdle waits until no daemon goroutine is live and no victim
// write-back is in flight (a completion re-kicks the daemon, so both must
// hold at once).
func waitEvictorIdle(t *testing.T, bp *BufferPool) {
	t.Helper()
	e := bp.evictor
	waitFor(t, 5*time.Second, func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return !e.running && e.inFlight.Load() == 0
	}, "eviction daemon to idle")
}

// checkResidencyGauges verifies every set's residentBytes gauge matches its
// resident map exactly — the sum of the resident pages' sizes: the admission
// counters must be wound on page entry, unwound exactly once on every
// release path (eviction, DropSet) and by the tail a Shrink gives back, and
// not at all when a failed spill keeps the page resident.
func checkResidencyGauges(t *testing.T, sets []*LocalitySet) {
	t.Helper()
	for _, s := range sets {
		s.mu.Lock()
		want := int64(0)
		for _, p := range s.resident {
			want += p.Size()
		}
		got := s.residentBytes.Load()
		s.mu.Unlock()
		if got != want {
			t.Errorf("set %s: ResidentBytes gauge = %d, resident map holds %d bytes", s.Name(), got, want)
		}
	}
}

// TestQuotaSpecValidation: admission fields must be sane at CreateSet time.
func TestQuotaSpecValidation(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	for _, spec := range []SetSpec{
		{Name: "negq", PageSize: 4096, MemoryQuota: -1},
		{Name: "negw", PageSize: 4096, Weight: -0.5},
		{Name: "tiny", PageSize: 4096, MemoryQuota: 4095},
		{Name: "huge", PageSize: 4096, MemoryQuota: 2 << 20},
	} {
		if _, err := bp.CreateSet(spec); err == nil {
			t.Errorf("CreateSet(%+v) succeeded, want error", spec)
		}
	}
	s, err := bp.CreateSet(SetSpec{Name: "ok", PageSize: 4096, MemoryQuota: 8192, Weight: 2})
	if err != nil {
		t.Fatalf("valid quota+weight spec rejected: %v", err)
	}
	if s.MemoryQuota() != 8192 || s.Weight() != 2 {
		t.Errorf("gauges = (%d, %g), want (8192, 2)", s.MemoryQuota(), s.Weight())
	}
	// An explicit quota takes precedence over the weight share.
	if got := s.Entitlement(); got != 8192 {
		t.Errorf("Entitlement = %d, want the 8192-byte quota", got)
	}
}

// TestEntitlementMath covers the three entitlement classes: explicit
// quota, weight-proportional share, and unconstrained (whole arena).
func TestEntitlementMath(t *testing.T) {
	const mem = 1 << 20
	bp := newTestPool(t, mem, nil)
	q, _ := bp.CreateSet(SetSpec{Name: "q", PageSize: 4096, MemoryQuota: 64 << 10})
	w1, _ := bp.CreateSet(SetSpec{Name: "w1", PageSize: 4096, Weight: 1})
	w3, _ := bp.CreateSet(SetSpec{Name: "w3", PageSize: 4096, Weight: 3})
	free, _ := bp.CreateSet(SetSpec{Name: "free", PageSize: 4096})
	if got := q.Entitlement(); got != 64<<10 {
		t.Errorf("quota set entitlement = %d, want %d", got, 64<<10)
	}
	if got := w1.Entitlement(); got != mem/4 {
		t.Errorf("weight-1 entitlement = %d, want %d (1/4 of the pool)", got, mem/4)
	}
	if got := w3.Entitlement(); got != 3*mem/4 {
		t.Errorf("weight-3 entitlement = %d, want %d (3/4 of the pool)", got, 3*mem/4)
	}
	if got := free.Entitlement(); got != mem {
		t.Errorf("unconstrained entitlement = %d, want the whole %d-byte arena", got, mem)
	}
	// Dropping a weighted set redistributes the shares.
	if err := bp.DropSet(w3); err != nil {
		t.Fatal(err)
	}
	if got := w1.Entitlement(); got != mem {
		t.Errorf("after dropping w3, w1 entitlement = %d, want %d", got, mem)
	}
}

// TestQuotaRespected: a set with a hard quota streaming far more data than
// the quota allows must converge back to at most its quota via
// self-eviction — with no pool-wide memory pressure at all (the rest of
// the arena stays free).
func TestQuotaRespected(t *testing.T) {
	const pageSize = 4096
	bp := newTestPool(t, 64*pageSize, nil)
	quota := int64(8 * pageSize)
	s, err := bp.CreateSet(SetSpec{Name: "capped", PageSize: pageSize, MemoryQuota: quota})
	if err != nil {
		t.Fatal(err)
	}
	const total = 32
	for i := 0; i < total; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		stamp(p.Bytes(), 11, p.Num())
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return s.ResidentBytes() <= quota },
		fmt.Sprintf("resident bytes (%d) to drop to the %d-byte quota", s.ResidentBytes(), quota))
	if bp.Stats().Spills.Load() == 0 {
		t.Error("self-eviction of dirty write-back pages must spill them")
	}
	checkResidencyGauges(t, []*LocalitySet{s})
	// Every page, evicted or resident, must read back intact.
	for num := int64(0); num < total; num++ {
		p, err := s.Pin(num)
		if err != nil {
			t.Fatalf("Pin(%d): %v", num, err)
		}
		if err := checkStamp(p.Bytes(), 11, num); err != nil {
			t.Error(err)
		}
		if err := s.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
}

// TestOverQuotaSelfEvictsBeforeCrossSetSteal: while an over-quota set
// hammers the pool into pressure, a well-behaved unconstrained tenant must
// not lose a single resident page — the aggressor's growth is fed
// exclusively by its own overage. The pool is sized with a little headroom
// over the two tenants' combined footprint (16 of 20 pages): committing
// entitlements to 100% of the arena would leave free memory permanently
// below the background low watermark, and those watermark rounds reclaim
// by policy cost, not by fairness.
func TestOverQuotaSelfEvictsBeforeCrossSetSteal(t *testing.T) {
	const pageSize = 4096
	bp := newTestPool(t, 20*pageSize, nil)
	polite, err := bp.CreateSet(SetSpec{Name: "polite", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	const politePages = 8
	for i := 0; i < politePages; i++ {
		p, err := polite.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		stamp(p.Bytes(), 21, p.Num())
		if err := polite.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	aggr, err := bp.CreateSet(SetSpec{Name: "aggr", PageSize: pageSize, MemoryQuota: 8 * pageSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		p, err := aggr.NewPage()
		if err != nil {
			t.Fatalf("aggressor NewPage %d: %v", i, err)
		}
		stamp(p.Bytes(), 22, p.Num())
		if err := aggr.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
		if got := polite.ResidentPages(); got != politePages {
			t.Fatalf("after %d aggressor pages the polite set holds %d resident pages, want %d: cross-set steal before self-eviction", i+1, got, politePages)
		}
	}
	if polite.Stats().SpillWrites.Load() != 0 {
		t.Errorf("polite set absorbed %d spill writes, want 0", polite.Stats().SpillWrites.Load())
	}
	if aggr.Stats().SpillWrites.Load() == 0 {
		t.Error("aggressor streamed 60 dirty pages through an 8-page quota without spilling")
	}
	checkResidencyGauges(t, []*LocalitySet{polite, aggr})
	for _, s := range []*LocalitySet{polite, aggr} {
		if err := bp.DropSet(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWeightProportionalSplit: two weighted tenants contending for the
// whole pool settle at a residency split proportional to their weights.
// The first tenant is deliberately allowed to bloat far past its share
// while it has the pool to itself (weights bind only under pressure), and
// is then squeezed back to its entitlement by the second tenant's growth.
func TestWeightProportionalSplit(t *testing.T) {
	const pageSize = 4096
	const pages = 32
	bp := newTestPool(t, pages*pageSize, nil)
	a, err := bp.CreateSet(SetSpec{Name: "a", PageSize: pageSize, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bp.CreateSet(SetSpec{Name: "b", PageSize: pageSize, Weight: 3})
	if err != nil {
		t.Fatal(err)
	}
	entA, entB := int64(pages*pageSize/4), int64(3*pages*pageSize/4)
	if a.Entitlement() != entA || b.Entitlement() != entB {
		t.Fatalf("entitlements = (%d, %d), want (%d, %d)", a.Entitlement(), b.Entitlement(), entA, entB)
	}
	// Alone, tenant a may fill the pool well past its 1/4 share: weight
	// entitlements must not spill anything while memory is idle.
	for i := 0; i < pages; i++ {
		p, err := a.NewPage()
		if err != nil {
			t.Fatalf("a.NewPage %d: %v", i, err)
		}
		stamp(p.Bytes(), 31, p.Num())
		if err := a.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	if a.ResidentBytes() <= entA {
		t.Fatalf("a.ResidentBytes = %d: expected the idle pool to let a bloat past its %d-byte share", a.ResidentBytes(), entA)
	}
	// Tenant b's growth squeezes a back toward its entitlement.
	for i := 0; i < 3*pages; i++ {
		p, err := b.NewPage()
		if err != nil {
			t.Fatalf("b.NewPage %d: %v", i, err)
		}
		stamp(p.Bytes(), 32, p.Num())
		if err := b.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	waitEvictorIdle(t, bp)
	slack := int64(3 * pageSize) // one policy batch of rounding room
	if got := a.ResidentBytes(); got > entA+slack {
		t.Errorf("a.ResidentBytes = %d after contention, want <= entitlement %d (+%d slack)", got, entA, slack)
	}
	if got := b.ResidentBytes(); got < entB-3*slack {
		t.Errorf("b.ResidentBytes = %d after contention, want near its %d-byte entitlement", got, entB)
	}
	checkResidencyGauges(t, []*LocalitySet{a, b})
	for _, s := range []*LocalitySet{a, b} {
		if err := bp.DropSet(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnconstrainedPoolSkipsFairnessPass: when no spec sets a quota or a
// weight, every entitlement equals the arena, the fairness pre-pass never
// fires, and eviction behaves exactly like the pre-admission pool — the
// backward-compat guarantee for all existing workloads.
func TestUnconstrainedPoolSkipsFairnessPass(t *testing.T) {
	const pageSize = 4096
	bp := newTestPool(t, 5*pageSize, nil)
	s, err := bp.CreateSet(SetSpec{Name: "plain", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Entitlement(); got != bp.Capacity() {
		t.Fatalf("Entitlement = %d, want the whole %d-byte arena", got, bp.Capacity())
	}
	const total = 16
	for i := 0; i < total; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		stamp(p.Bytes(), 41, p.Num())
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
		// Even with the pool saturated, no set is ever over-entitled.
		if view := bp.snapshot().overEntitled(false); view != nil {
			t.Fatalf("fairness pass engaged on an unconstrained pool: %d over-entitled sets", len(view.Sets))
		}
	}
	if bp.Stats().Evictions.Load() == 0 {
		t.Fatal("seed-style eviction should have run (16 pages through a 5-page pool)")
	}
	for num := int64(0); num < total; num++ {
		p, err := s.Pin(num)
		if err != nil {
			t.Fatalf("Pin(%d): %v", num, err)
		}
		if err := checkStamp(p.Bytes(), 41, num); err != nil {
			t.Error(err)
		}
		if err := s.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	checkResidencyGauges(t, []*LocalitySet{s})
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
	if got := s.ResidentBytes(); got != 0 {
		t.Errorf("ResidentBytes = %d after DropSet, want 0", got)
	}
}

// TestCapToOverage: one fairness round takes no more than each set's
// overage from it, but always at least one page per selected set.
func TestCapToOverage(t *testing.T) {
	mk := func(pageSize, resident, entitlement int64) *SetSnapshot {
		return &SetSnapshot{PageSize: pageSize, ResidentBytes: resident, Entitlement: entitlement}
	}
	oneOver := mk(4096, 5*4096, 4*4096)  // one page over
	wayOver := mk(4096, 16*4096, 4*4096) // twelve pages over
	refs := func(s *SetSnapshot, n int) []PageRef {
		out := make([]PageRef, n)
		for i := range out {
			out[i] = PageRef{Set: s, Num: int64(i)}
		}
		return out
	}
	got := capToOverage(append(refs(oneOver, 4), refs(wayOver, 4)...))
	counts := map[*SetSnapshot]int{}
	for _, r := range got {
		counts[r.Set]++
	}
	if counts[oneOver] != 1 {
		t.Errorf("one-page-over set contributes %d victims, want exactly 1", counts[oneOver])
	}
	if counts[wayOver] != 4 {
		t.Errorf("way-over set contributes %d victims, want all 4 offered (still below its overage)", counts[wayOver])
	}
}
