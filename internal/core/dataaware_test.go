package core

import (
	"math"
	"testing"
	"testing/quick"
)

// viewAt builds a bare PolicyView at the given logical tick, for probing
// the probability model in isolation.
func viewAt(tick int64) *PolicyView {
	return &PolicyView{Tick: tick}
}

// findSet returns the snapshot of the named set within a view.
func findSet(t *testing.T, view *PolicyView, name string) *SetSnapshot {
	t.Helper()
	for _, s := range view.Sets {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("view has no set %q", name)
	return nil
}

func TestReuseProbabilityMonotone(t *testing.T) {
	v := viewAt(1000)
	// More recent references must have a higher reuse probability.
	pRecent := v.reuseProbability(999)
	pOld := v.reuseProbability(1)
	if pRecent <= pOld {
		t.Errorf("p(recent)=%v <= p(old)=%v", pRecent, pOld)
	}
	if pRecent <= 0 || pRecent >= 1 || pOld <= 0 || pOld >= 1 {
		t.Errorf("probabilities out of (0,1): %v %v", pRecent, pOld)
	}
}

func TestReuseProbabilityProperty(t *testing.T) {
	v := viewAt(1 << 40)
	f := func(a, b uint32) bool {
		// For any two last-ref ticks, the more recent one has >= probability.
		ta, tb := int64(a), int64(b)
		pa, pb := v.reuseProbability(ta), v.reuseProbability(tb)
		if ta > tb {
			return pa >= pb
		}
		if tb > ta {
			return pb >= pa
		}
		return pa == pb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLinearApproximation verifies the §6 note: with horizon t=1,
// p_reuse = 1 − e^{−λ} ≈ λ for small λ.
func TestLinearApproximation(t *testing.T) {
	v := viewAt(1 << 20)
	for _, delta := range []int64{100, 1000, 10000} {
		lambda := 1.0 / float64(delta)
		p := v.reuseProbability(v.Tick - delta)
		if math.Abs(p-lambda) > lambda*lambda {
			t.Errorf("delta=%d: p=%v not within λ² of λ=%v", delta, p, lambda)
		}
	}
}

// TestPageCostOrdering: dirty write-back pages cost more to evict than clean
// ones, and random-read sets carry the w_r penalty.
func TestPageCostOrdering(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	seq, _ := bp.CreateSet(SetSpec{Name: "seq", PageSize: 4096})
	hash, _ := bp.CreateSet(SetSpec{Name: "hash", PageSize: 4096})
	hash.SetReading(RandomRead)

	ps, _ := seq.NewPage()
	ph, _ := hash.NewPage()
	_ = seq.Unpin(ps, true)  // dirty
	_ = hash.Unpin(ph, true) // dirty
	// Equalise recency so only attributes differ.
	now := bp.tick.Load()
	seq.mu.Lock()
	ps.lastRef = now
	seq.mu.Unlock()
	hash.mu.Lock()
	ph.lastRef = now
	hash.mu.Unlock()

	view := bp.snapshot()
	refSeq, okSeq := findSet(t, view, "seq").NextVictim()
	refHash, okHash := findSet(t, view, "hash").NextVictim()
	if !okSeq || !okHash {
		t.Fatal("expected evictable pages in both sets")
	}
	costSeq := view.PageCost(refSeq)
	costHash := view.PageCost(refHash)
	// Clean copy of the sequential page.
	refClean := refSeq
	refClean.Dirty = false
	costClean := view.PageCost(refClean)

	if costHash <= costSeq {
		t.Errorf("random-read cost %v should exceed sequential cost %v", costHash, costSeq)
	}
	if costClean >= costSeq {
		t.Errorf("clean cost %v should be below dirty cost %v", costClean, costSeq)
	}
}

// TestStrategySelection checks §6's pattern→strategy table.
func TestStrategySelection(t *testing.T) {
	cases := []struct {
		attrs Attributes
		want  EvictStrategy
	}{
		{Attributes{Writing: SequentialWrite}, EvictMRU},
		{Attributes{Writing: ConcurrentWrite}, EvictMRU},
		{Attributes{Reading: SequentialRead}, EvictMRU},
		{Attributes{Writing: RandomMutableWrite}, EvictLRU},
		{Attributes{Reading: RandomRead}, EvictLRU},
		{Attributes{}, EvictMRU},
	}
	for _, c := range cases {
		if got := c.attrs.Strategy(); got != c.want {
			t.Errorf("Strategy(%+v) = %v, want %v", c.attrs, got, c.want)
		}
	}
}

// TestVictimBatchSize: write sets lose one page, read-only sets lose 10%.
func TestVictimBatchSize(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	s, _ := bp.CreateSet(SetSpec{Name: "s", PageSize: 1024})
	for i := 0; i < 40; i++ {
		p, _ := s.NewPage()
		_ = s.Unpin(p, false)
	}
	s.SetCurrentOp(OpWrite)
	if n := len(findSet(t, bp.snapshot(), "s").VictimBatch()); n != 1 {
		t.Errorf("write batch = %d, want 1", n)
	}
	s.SetCurrentOp(OpRead)
	if n := len(findSet(t, bp.snapshot(), "s").VictimBatch()); n != 4 {
		t.Errorf("read batch = %d, want 4 (10%% of 40)", n)
	}
	s.SetCurrentOp(OpReadWrite)
	if n := len(findSet(t, bp.snapshot(), "s").VictimBatch()); n != 1 {
		t.Errorf("read-and-write batch = %d, want 1", n)
	}
}

// TestMRUvsLRUVictimOrder: an MRU set evicts its most recently used page,
// an LRU set its least recently used.
func TestMRUvsLRUVictimOrder(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	s, _ := bp.CreateSet(SetSpec{Name: "s", PageSize: 1024})
	for i := 0; i < 3; i++ {
		p, _ := s.NewPage()
		_ = s.Unpin(p, false)
	}
	// Touch page 1 last: it becomes the MRU page.
	p1, _ := s.Pin(1)
	_ = s.Unpin(p1, false)

	s.SetReading(SequentialRead) // -> MRU
	if v, ok := findSet(t, bp.snapshot(), "s").NextVictim(); !ok || v.Num != 1 {
		t.Errorf("MRU victim = %d (ok=%v), want 1", v.Num, ok)
	}

	s.SetReading(RandomRead) // -> LRU
	if v, ok := findSet(t, bp.snapshot(), "s").NextVictim(); !ok || v.Num != 0 {
		t.Errorf("LRU victim = %d (ok=%v), want 0", v.Num, ok)
	}
}

// TestDataAwarePrefersCheapVictim: between a clean sequential set and a dirty
// random set with equal recency, the policy drains the cheap one.
func TestDataAwarePrefersCheapVictim(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	cheap, _ := bp.CreateSet(SetSpec{Name: "cheap", PageSize: 1024, Durability: WriteThrough})
	costly, _ := bp.CreateSet(SetSpec{Name: "costly", PageSize: 1024})
	costly.SetWriting(RandomMutableWrite)
	for i := 0; i < 4; i++ {
		p, _ := cheap.NewPage()
		_ = cheap.Unpin(p, true) // flushed at unpin: clean
		q, _ := costly.NewPage()
		_ = costly.Unpin(q, true) // dirty write-back
	}
	// Equalise recency to isolate the attribute-driven cost difference.
	now := bp.tick.Load()
	for _, s := range []*LocalitySet{cheap, costly} {
		s.mu.Lock()
		for _, p := range s.resident {
			p.lastRef = now
		}
		s.mu.Unlock()
	}
	victims, err := NewDataAware().SelectVictims(bp.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) == 0 {
		t.Fatal("no victims")
	}
	for _, v := range victims {
		if v.Set.Name != "cheap" {
			t.Errorf("victim from %q, want all from cheap clean set", v.Set.Name)
		}
	}
}
