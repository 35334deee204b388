package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pangea/internal/disk"
)

// prefetchPool builds a pool over an n-drive unthrottled array, sized in
// pages, with automatic read-ahead disabled so tests drive every hint
// explicitly.
func prefetchPool(t *testing.T, drives int, pages, pageSize int64) (*BufferPool, *disk.Array) {
	t.Helper()
	arr, err := disk.NewArray(t.TempDir(), drives, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := NewPool(PoolConfig{Memory: pages * pageSize, Array: arr, ReadAhead: -1})
	if err != nil {
		t.Fatal(err)
	}
	return bp, arr
}

// writeSpilled creates a write-through set of n stamped pages; write-through
// gives every page an on-disk image at unpin time, so the set can be cooled
// without any spill I/O and read back by the prefetcher.
func writeSpilled(t *testing.T, bp *BufferPool, name string, n int, pageSize, quota int64) *LocalitySet {
	t.Helper()
	s, err := bp.CreateSet(SetSpec{Name: name, PageSize: pageSize, Durability: WriteThrough, MemoryQuota: quota})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		stamp(p.Bytes(), int64(s.ID()), p.Num())
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// coolSet evicts every resident page of s through the public path: a
// throwaway filler set grows until s is fully cold (the cost model reclaims
// s's clean write-through pages rather than spilling the filler's dirty
// ones), then the filler is dropped.
func coolSet(t *testing.T, bp *BufferPool, s *LocalitySet) {
	t.Helper()
	filler, err := bp.CreateSet(SetSpec{Name: s.Name() + "-chill", PageSize: s.PageSize()})
	if err != nil {
		t.Fatal(err)
	}
	limit := int(bp.Capacity()/s.PageSize()) * 4
	for i := 0; s.ResidentPages() > 0; i++ {
		if i > limit {
			t.Fatalf("%d pages of %q still resident after %d filler pages", s.ResidentPages(), s.Name(), i)
		}
		p, err := filler.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if err := filler.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.DropSet(filler); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchLoadsAndHits prefetches a cold set and verifies the frames
// arrive resident at pin count zero, later pins are hits that never touch
// the demand-load path, and the speculation counters tell that story.
func TestPrefetchLoadsAndHits(t *testing.T) {
	const pageSize = 4 << 10
	const n = 4
	bp, _ := prefetchPool(t, 2, 8, pageSize)
	s := writeSpilled(t, bp, "data", n, pageSize, 0)
	coolSet(t, bp, s)

	if issued := s.Prefetch(s.PageNums()); issued != n {
		t.Fatalf("Prefetch issued %d reads, want %d", issued, n)
	}
	waitFor(t, 5*time.Second, func() bool {
		return s.ResidentPages() == n && bp.Stats().LoadsInFlight.Load() == 0
	}, "prefetched frames to land")
	// A second hint over the same pages must dedupe against residency.
	if issued := s.Prefetch(s.PageNums()); issued != 0 {
		t.Fatalf("re-hinting resident pages issued %d reads, want 0", issued)
	}
	for _, num := range s.PageNums() {
		p, err := s.Pin(num)
		if err != nil {
			t.Fatalf("Pin(%d): %v", num, err)
		}
		if err := checkStamp(p.Bytes(), int64(s.ID()), num); err != nil {
			t.Error(err)
		}
		if err := s.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	st := bp.Stats()
	if got := st.PrefetchesIssued.Load(); got != n {
		t.Errorf("PrefetchesIssued = %d, want %d", got, n)
	}
	if got := st.PrefetchHits.Load(); got != n {
		t.Errorf("PrefetchHits = %d, want %d", got, n)
	}
	if got := st.Loads.Load(); got != 0 {
		t.Errorf("demand Loads = %d, want 0 — pins of prefetched frames must not count as misses", got)
	}
	if got := s.Stats().LoadReads.Load(); got != n {
		t.Errorf("set LoadReads = %d, want %d (prefetch reads count as set reads)", got, n)
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
}

// TestPinCoalescesOntoPrefetch holds a prefetch's disk read open and races
// pinners against it: every pinner must coalesce onto the in-flight load and
// the drive must see exactly one read for the page.
func TestPinCoalescesOntoPrefetch(t *testing.T) {
	const pageSize = 4 << 10
	bp, arr := prefetchPool(t, 1, 8, pageSize)
	s := writeSpilled(t, bp, "data", 1, pageSize, 0)
	coolSet(t, bp, s)

	var reads atomic.Int64
	gate := make(chan struct{})
	arr.Disk(0).SetReadFault(func() error {
		reads.Add(1)
		<-gate
		return nil
	})
	if issued := s.Prefetch([]int64{0}); issued != 1 {
		t.Fatalf("Prefetch issued %d, want 1", issued)
	}
	const pinners = 8
	var wg sync.WaitGroup
	errCh := make(chan error, 2*pinners)
	for i := 0; i < pinners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := s.Pin(0)
			if err != nil {
				errCh <- err
				return
			}
			if err := checkStamp(p.Bytes(), int64(s.ID()), 0); err != nil {
				errCh <- err
			}
			errCh <- s.Unpin(p, false)
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return reads.Load() == 1 }, "the prefetch read to start")
	close(gate)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := reads.Load(); got != 1 {
		t.Fatalf("drive saw %d reads for one page with %d racing pinners, want 1", got, pinners)
	}
	arr.Disk(0).SetReadFault(nil)
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchesCompleteOutOfOrderOnOneDrive: two prefetches are at the same
// drive at once and the second read lands while the first is held. Its frame
// is resident and a pin of it hits while the first page is still loading; a
// pin of the held page coalesces onto its load instead of reading again.
func TestPrefetchesCompleteOutOfOrderOnOneDrive(t *testing.T) {
	const pageSize = 4 << 10
	bp, arr := prefetchPool(t, 1, 8, pageSize)
	s := writeSpilled(t, bp, "data", 2, pageSize, 0)
	coolSet(t, bp, s)

	var reads atomic.Int64
	gate := make(chan struct{})
	arr.Disk(0).SetReadFault(func() error {
		if reads.Add(1) == 1 {
			<-gate
		}
		return nil
	})
	if issued := s.Prefetch([]int64{0, 1}); issued != 2 {
		t.Fatalf("Prefetch issued %d, want 2", issued)
	}
	waitFor(t, 5*time.Second, func() bool { return s.ResidentPages() == 1 },
		"the second read to land while the first is held")
	var landed, held int64 = -1, -1
	s.mu.Lock()
	for num := range s.resident {
		landed = num
	}
	for num := range s.loading {
		held = num
	}
	s.mu.Unlock()
	if landed < 0 || held < 0 || landed == held {
		t.Fatalf("resident page %d, loading page %d: want one of each", landed, held)
	}
	pin := func(num int64) error {
		p, err := s.Pin(num)
		if err != nil {
			return err
		}
		if err := checkStamp(p.Bytes(), int64(s.ID()), num); err != nil {
			return err
		}
		return s.Unpin(p, false)
	}
	if err := pin(landed); err != nil {
		t.Fatalf("pin of the landed page: %v", err)
	}
	if got := bp.Stats().PrefetchHits.Load(); got != 1 {
		t.Errorf("PrefetchHits = %d after pinning the landed page, want 1", got)
	}
	pinned := make(chan error, 1)
	go func() { pinned <- pin(held) }()
	select {
	case err := <-pinned:
		t.Fatalf("Pin of the held page returned (%v) with its read still gated", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-pinned; err != nil {
		t.Fatalf("pin of the held page: %v", err)
	}
	if got := reads.Load(); got != 2 {
		t.Errorf("drive saw %d reads for two pages, want 2 — the pin did not coalesce", got)
	}
	if got := bp.Stats().Loads.Load(); got != 0 {
		t.Errorf("demand Loads = %d, want 0", got)
	}
	arr.Disk(0).SetReadFault(nil)
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
	if got := bp.UsedBytes(); got != 0 {
		t.Errorf("UsedBytes = %d after DropSet, want 0", got)
	}
}

// TestLoadErrorReachesCoalescedWaiters fails a prefetch's read and verifies
// the single-flight contract on the error path: every coalesced pinner sees
// the read's error (not a hang, not a panic), the speculative frame and its
// admission charge are released exactly once, and once the fault clears a
// retry pins the page successfully.
func TestLoadErrorReachesCoalescedWaiters(t *testing.T) {
	const pageSize = 4 << 10
	bp, arr := prefetchPool(t, 1, 8, pageSize)
	s := writeSpilled(t, bp, "data", 1, pageSize, 0)
	coolSet(t, bp, s)

	sentinel := errors.New("injected read fault")
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	arr.Disk(0).SetReadFault(func() error {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return sentinel
	})
	if issued := s.Prefetch([]int64{0}); issued != 1 {
		t.Fatalf("Prefetch issued %d, want 1", issued)
	}
	<-started
	const pinners = 4
	var wg sync.WaitGroup
	errCh := make(chan error, pinners)
	for i := 0; i < pinners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Pin(0)
			errCh <- err
		}()
	}
	close(gate)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if !errors.Is(err, sentinel) {
			t.Fatalf("coalesced pinner got %v, want the injected read fault", err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return bp.Stats().LoadsInFlight.Load() == 0 }, "load gauge to settle")
	if got := s.ResidentBytes(); got != 0 {
		t.Fatalf("ResidentBytes = %d after failed load, want 0 — frame not released exactly once", got)
	}
	if got := s.ResidentPages(); got != 0 {
		t.Fatalf("ResidentPages = %d after failed load, want 0", got)
	}
	arr.Disk(0).SetReadFault(nil)
	p, err := s.Pin(0)
	if err != nil {
		t.Fatalf("Pin after clearing fault: %v", err)
	}
	if err := checkStamp(p.Bytes(), int64(s.ID()), 0); err != nil {
		t.Error(err)
	}
	if err := s.Unpin(p, false); err != nil {
		t.Fatal(err)
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
}

// TestDropSetMidPrefetch drops a set while its prefetched reads are still on
// the drive: DropSet must wait out the in-flight loads, and every frame —
// landed or in flight — must be released exactly once, leaving the arena
// empty and the in-flight counters at zero.
func TestDropSetMidPrefetch(t *testing.T) {
	const pageSize = 4 << 10
	const n = 4
	bp, arr := prefetchPool(t, 2, 8, pageSize)
	s := writeSpilled(t, bp, "data", n, pageSize, 0)
	coolSet(t, bp, s)

	gate := make(chan struct{})
	for i := 0; i < arr.Len(); i++ {
		arr.Disk(i).SetReadFault(func() error {
			<-gate
			return nil
		})
	}
	if issued := s.Prefetch(s.PageNums()); issued != n {
		t.Fatalf("Prefetch issued %d, want %d", issued, n)
	}
	dropped := make(chan error, 1)
	go func() { dropped <- bp.DropSet(s) }()
	close(gate)
	if err := <-dropped; err != nil {
		t.Fatalf("DropSet mid-prefetch: %v", err)
	}
	if got := bp.Stats().LoadsInFlight.Load(); got != 0 {
		t.Fatalf("LoadsInFlight = %d after DropSet, want 0", got)
	}
	if got := bp.UsedBytes(); got != 0 {
		t.Fatalf("UsedBytes = %d after DropSet, want 0 — a speculative frame leaked", got)
	}
}

// TestEvictorReclaimsSpeculativeFirst parks prefetched frames on an idle set
// and grows another: the evictor must burn the speculation (counted as
// wasted) before touching anything else, since an idle set's guesses are the
// cheapest memory in the pool.
func TestEvictorReclaimsSpeculativeFirst(t *testing.T) {
	const pageSize = 4 << 10
	const n = 2
	bp, _ := prefetchPool(t, 1, 4, pageSize)
	s := writeSpilled(t, bp, "data", n, pageSize, 0)
	coolSet(t, bp, s)

	if issued := s.Prefetch(s.PageNums()); issued != n {
		t.Fatalf("Prefetch issued %d, want %d", issued, n)
	}
	waitFor(t, 5*time.Second, func() bool { return s.ResidentPages() == n }, "prefetched frames to land")
	// Grow a second set past what free memory can hold; the reclaim must
	// come out of the idle speculation.
	grower := writeSpilled(t, bp, "grower", 4, pageSize, 0)
	waitFor(t, 5*time.Second, func() bool { return bp.Stats().PrefetchWasted.Load() >= 1 }, "speculative frames to be reclaimed")
	if got := s.ResidentPages(); got >= n {
		t.Fatalf("idle set still holds %d speculative pages under pressure", got)
	}
	if err := bp.DropSet(grower); err != nil {
		t.Fatal(err)
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchRespectsQuota hints a whole cold set at a tenant whose hard
// quota only covers half of it: speculation must stop at the quota line, not
// push the set over its entitlement.
func TestPrefetchRespectsQuota(t *testing.T) {
	const pageSize = 4 << 10
	const n = 4
	bp, _ := prefetchPool(t, 1, 8, pageSize)
	s := writeSpilled(t, bp, "tenant", n, pageSize, 2*pageSize)
	coolSet(t, bp, s)

	if issued := s.Prefetch(s.PageNums()); issued != 2 {
		t.Fatalf("Prefetch issued %d reads against a 2-page quota, want 2", issued)
	}
	waitFor(t, 5*time.Second, func() bool { return bp.Stats().LoadsInFlight.Load() == 0 }, "loads to settle")
	if got := s.ResidentBytes(); got > 2*pageSize {
		t.Fatalf("ResidentBytes = %d, above the %d-byte quota", got, 2*pageSize)
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchPinRace hammers Prefetch against concurrent pinners and a
// final mid-flight DropSet under the race detector: hints, hits, demand
// misses and eviction interleave freely, and the arena must come back empty.
func TestPrefetchPinRace(t *testing.T) {
	const pageSize = 4 << 10
	const n = 16
	bp, _ := prefetchPool(t, 2, 6, pageSize)
	s := writeSpilled(t, bp, "race", n, pageSize, 0)
	coolSet(t, bp, s)

	stop := make(chan struct{})
	hintsDone := make(chan struct{})
	go func() {
		defer close(hintsDone)
		nums := s.PageNums()
		for {
			select {
			case <-stop:
				return
			default:
				s.Prefetch(nums)
			}
		}
	}()
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for num := int64(0); num < n; num++ {
					p, err := s.Pin(num)
					if err != nil {
						errCh <- fmt.Errorf("worker %d Pin(%d): %w", w, num, err)
						return
					}
					if err := checkStamp(p.Bytes(), int64(s.ID()), num); err != nil {
						errCh <- err
						return
					}
					if err := s.Unpin(p, false); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-hintsDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
	if got := bp.UsedBytes(); got != 0 {
		t.Fatalf("UsedBytes = %d after drop, want 0", got)
	}
}

// TestPrefetchCompletionWakesBlockedAllocation is the regression test for a
// lost wakeup that stalled fig7-sized pools: speculation claims the last
// free frames while its reads are still on the drive, a demand allocation
// blocks behind them, and the eviction daemon's pass finds nothing evictable
// (in-flight frames aren't resident yet) and parks. When the reads then land
// — frames resident at pin count zero, perfectly evictable — someone must
// wake the blocked allocation; before the fix nobody did, and it rode out
// its full AllocTimeout into a spurious ErrNoEvictable.
func TestPrefetchCompletionWakesBlockedAllocation(t *testing.T) {
	const pageSize = 4 << 10
	// Three pages of arena hold exactly two carved frames (each frame pays a
	// small allocator header), so the two gated prefetches below fill the
	// pool completely.
	bp, arr := prefetchPool(t, 1, 3, pageSize)
	s := writeSpilled(t, bp, "data", 2, pageSize, 0)
	coolSet(t, bp, s)

	gate := make(chan struct{})
	arr.Disk(0).SetReadFault(func() error {
		<-gate
		return nil
	})
	if issued := s.Prefetch(s.PageNums()); issued != 2 {
		t.Fatalf("Prefetch issued %d, want 2", issued)
	}

	late, err := bp.CreateSet(SetSpec{Name: "late", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		p, err := late.NewPage()
		if err == nil {
			err = late.Unpin(p, false)
		}
		done <- err
	}()
	// Let the allocation block and the daemon's pass run dry and park while
	// every frame is still in flight on the gated drive.
	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("NewPage completed against a full pool of gated loads: %v", err)
	default:
	}

	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked allocation after prefetches landed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("allocation still blocked after the prefetched frames landed evictable")
	}
	if got := bp.Stats().PrefetchWasted.Load(); got < 1 {
		t.Errorf("PrefetchWasted = %d, want >= 1 (a speculative frame fed the blocked allocation)", got)
	}
}

// TestStarvedBudgetChargedOncePerPage is the regression test for the
// starved-speculation budget double-counting: a scan re-hints its window on
// every step, and while the pool stays full every step is refused. The same
// four pages refused fifty times are one window of demand, not fifty — the
// budget only clamped at the whole pool, so a stalled scan asked the daemon
// to drain it. Once memory frees up and the pages load, the budget is paid.
func TestStarvedBudgetChargedOncePerPage(t *testing.T) {
	const pageSize = 4 << 10
	const window = 4
	// Seven pages of arena hold six carved frames (each frame pays a small
	// allocator header); six pinned filler pages fill the pool.
	bp, _ := prefetchPool(t, 1, 7, pageSize)
	s := writeSpilled(t, bp, "data", 8, pageSize, 0)
	coolSet(t, bp, s)
	// Write-through fillers are clean once unpinned and older than anything
	// the window loads, so they are the policy's cheapest victims throughout.
	filler, err := bp.CreateSet(SetSpec{Name: "pins", PageSize: pageSize, Durability: WriteThrough})
	if err != nil {
		t.Fatal(err)
	}
	pinned := make([]*Page, 6)
	for i := range pinned {
		if pinned[i], err = filler.NewPage(); err != nil {
			t.Fatal(err)
		}
	}

	nums := s.PageNums()[:window]
	for i := 0; i < 50; i++ {
		if issued := s.Prefetch(nums); issued != 0 {
			t.Fatalf("hint %d against a pinned-full pool issued %d reads, want 0", i, issued)
		}
	}
	if got := bp.loadStarved.Load(); got != window*pageSize {
		t.Fatalf("starved budget = %d bytes after 50 refused re-hints of %d pages, want %d (charged once per page)",
			got, window, window*pageSize)
	}

	// The fillers become evictable; the budget buys exactly the reclaim the
	// window needs, the retried hints load, and nothing is left owing.
	for _, p := range pinned {
		if err := filler.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		s.Prefetch(nums)
		return s.ResidentPages() == window
	}, "the starved window to load")
	if got := bp.loadStarved.Load(); got != 0 {
		t.Errorf("starved budget = %d bytes with the window loaded, want 0", got)
	}
	if got := filler.ResidentPages(); got != len(pinned)-window {
		t.Errorf("filler holds %d resident pages, want %d: one window of refusals bought more than one window of reclaim",
			got, len(pinned)-window)
	}
	for _, set := range []*LocalitySet{filler, s} {
		if err := bp.DropSet(set); err != nil {
			t.Fatal(err)
		}
	}
}
