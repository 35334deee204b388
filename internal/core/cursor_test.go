package core_test

import (
	"sync"
	"testing"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/services"
)

// cursorPool builds a pool of the given size in pages over an unthrottled
// array with automatic read-ahead on: the scan cursor is the hinter under
// test.
func cursorPool(t *testing.T, drives int, pages, pageSize int64, timeout time.Duration) *core.BufferPool {
	t.Helper()
	arr, err := disk.NewArray(t.TempDir(), drives, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: pages * pageSize, Array: arr, AllocTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// drain runs one iterator to the end of its scan.
func drain(it *services.PageIterator) error {
	for {
		p, err := it.Next()
		if p == nil {
			return err
		}
		if err := it.Release(p); err != nil {
			return err
		}
	}
}

// every returns the pages of [0,n) congruent to r modulo m: a pruned scan's
// page list.
func every(n, m, r int64) []int64 {
	var nums []int64
	for i := r; i < n; i += m {
		nums = append(nums, i)
	}
	return nums
}

// TestCursorNeverSpeculatesOffItsList scans a pruned page list of a cold set
// with read-ahead on: every read the drives see — demand or speculative — is
// a listed page, and nothing else becomes resident. The list is the scan's
// only prefetch filter.
func TestCursorNeverSpeculatesOffItsList(t *testing.T) {
	const pageSize = 4 << 10
	const n = 32
	bp := cursorPool(t, 2, 2*n, pageSize, 0)
	s := core.WriteSpilled(t, bp, "data", n, pageSize, 0)
	core.CoolSet(t, bp, s)

	list := every(n, 2, 0)
	iters := services.PageIteratorsFor(s, list, 2)
	var wg sync.WaitGroup
	errs := make([]error, len(iters))
	for i, it := range iters {
		wg.Add(1)
		go func(i int, it *services.PageIterator) {
			defer wg.Done()
			errs[i] = drain(it)
		}(i, it)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().LoadReads.Load(); got != int64(len(list)) {
		t.Errorf("LoadReads = %d, want %d: a page off the scan's list reached a drive", got, len(list))
	}
	if got := s.ResidentPages(); got != len(list) {
		t.Errorf("ResidentPages = %d, want %d (only listed pages)", got, len(list))
	}
	if st := bp.Stats(); st.PrefetchesIssued.Load() == 0 || st.PrefetchWasted.Load() != 0 {
		t.Errorf("prefetches issued %d, wasted %d: want the cursor to speculate, and only on pages it then pins",
			st.PrefetchesIssued.Load(), st.PrefetchWasted.Load())
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPrunedScansKeepTheirOwnPages runs two pruned scans of one set
// at once. Each cursor hints from its own list, so neither masks nor widens
// the other's speculation: exactly the union of the two lists is read, once.
func TestConcurrentPrunedScansKeepTheirOwnPages(t *testing.T) {
	const pageSize = 4 << 10
	const n = 64
	bp := cursorPool(t, 2, 2*n, pageSize, 0)
	s := core.WriteSpilled(t, bp, "data", n, pageSize, 0)
	core.CoolSet(t, bp, s)

	lists := [][]int64{every(n, 4, 0), every(n, 4, 1)}
	var wg sync.WaitGroup
	errs := make([]error, len(lists))
	for i, list := range lists {
		wg.Add(1)
		go func(i int, list []int64) {
			defer wg.Done()
			errs[i] = drain(services.PageIteratorsFor(s, list, 1)[0])
		}(i, list)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := int64(len(lists[0]) + len(lists[1]))
	if got := s.Stats().LoadReads.Load(); got != want {
		t.Errorf("LoadReads = %d, want %d: the scans read outside their own lists", got, want)
	}
	if got := int64(s.ResidentPages()); got != want {
		t.Errorf("ResidentPages = %d, want %d", got, want)
	}
	if got := bp.Stats().PrefetchWasted.Load(); got != 0 {
		t.Errorf("PrefetchWasted = %d, want 0", got)
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
}

// TestPrunedPagesNeverChargeStarvedBudget starves a pruned scan's read-ahead
// against a pool full of pinned pages: the eviction daemon's reclaim budget
// is armed with the listed pages the window wanted, and with nothing for the
// pruned pages between them — charging for reads that never come would make
// background reclaim evict real residents.
func TestPrunedPagesNeverChargeStarvedBudget(t *testing.T) {
	const pageSize = 4 << 10
	const n = 16
	// Three pages of arena hold exactly two carved frames (each frame pays a
	// small allocator header), so two pinned filler pages fill the pool.
	bp := cursorPool(t, 1, 3, pageSize, 50*time.Millisecond)
	s := core.WriteSpilled(t, bp, "data", n, pageSize, 0)
	core.CoolSet(t, bp, s)
	filler, err := bp.CreateSet(core.SetSpec{Name: "pins", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	pinned := make([]*core.Page, 2)
	for i := range pinned {
		if pinned[i], err = filler.NewPage(); err != nil {
			t.Fatal(err)
		}
	}

	// The scan claims page 0 and hints the window behind it, pages 4 and 8
	// (one drive: two pages of read-ahead). Both hints are refused, and so —
	// once its allocation times out — is the demand pin.
	it := services.PageIteratorsFor(s, every(n, 4, 0), 1)[0]
	if p, err := it.Next(); err == nil {
		_ = it.Release(p)
		t.Fatal("Next pinned a page through a pool full of pinned pages")
	}
	if got, want := bp.StarvedBudget(), int64(s.ReadAhead())*pageSize; got != want {
		t.Errorf("starved budget = %d bytes, want %d: only the %d listed pages of the window may be charged",
			got, want, s.ReadAhead())
	}
	if got := bp.Stats().PrefetchesIssued.Load(); got != 0 {
		t.Errorf("PrefetchesIssued = %d against a pinned-full pool, want 0", got)
	}
	for _, p := range pinned {
		if err := filler.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, set := range []*core.LocalitySet{filler, s} {
		if err := bp.DropSet(set); err != nil {
			t.Fatal(err)
		}
	}
}
