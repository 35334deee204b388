package core

import (
	"errors"
	"testing"
	"time"

	"pangea/internal/disk"
)

// readOncePool builds a pool of the given size in pages over one unthrottled
// drive. Its callers keep it under 2 MiB, so its allocator is one shard: a
// test can fill it to the last frame.
func readOncePool(t *testing.T, pages, pageSize int64) (*BufferPool, *disk.Array) {
	t.Helper()
	return spillPool(t, 1, disk.Unthrottled(), pages, pageSize)
}

// readOnceSet creates a write-back set carrying the read-once stamp.
func readOnceSet(t *testing.T, bp *BufferPool, name string, pageSize int64) *LocalitySet {
	t.Helper()
	s, err := bp.CreateSet(SetSpec{Name: name, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetReadOnce(); err != nil {
		t.Fatal(err)
	}
	return s
}

// appendDirty appends n stamped pages to s and unpins them dirty.
func appendDirty(t *testing.T, s *LocalitySet, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		stamp(p.Bytes(), int64(s.ID()), p.Num())
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
}

// fillPinned appends stamped pages to s, keeping each pinned, until the pool
// has no frame left: every resident page is then pinned, so the evictor has
// nothing to take and the next allocation blocks.
func fillPinned(t *testing.T, bp *BufferPool, s *LocalitySet) []*Page {
	t.Helper()
	var pages []*Page
	for bp.alloc.FreeBytes() >= s.pageSize {
		p, err := s.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		stamp(p.Bytes(), int64(s.ID()), p.Num())
		pages = append(pages, p)
	}
	return pages
}

// wantConsumed checks that page num of s can no longer be pinned.
func wantConsumed(t *testing.T, s *LocalitySet, num int64) {
	t.Helper()
	if p, err := s.Pin(num); !errors.Is(err, ErrConsumed) {
		t.Errorf("Pin(%d) of a retired page = %v, %v; want ErrConsumed", num, p, err)
	}
}

// TestRetireFreesDirtyPageWithoutWriting: the last release of a dirty,
// never-spilled page of a read-once set frees its frame at once — the gauges
// drop by one page, no drive sees a write, the evictor's counters do not move —
// and an allocation blocked on a pool of pinned pages gets the frame.
func TestRetireFreesDirtyPageWithoutWriting(t *testing.T) {
	const pageSize = 4 << 10
	bp, arr := readOncePool(t, 8, pageSize)
	s := readOnceSet(t, bp, "once", pageSize)
	pages := fillPinned(t, bp, s)

	used, resident := bp.UsedBytes(), s.ResidentBytes()
	if err := s.Retire(pages[0]); err != nil {
		t.Fatal(err)
	}
	if got := used - bp.UsedBytes(); got < pageSize || got >= 2*pageSize {
		t.Errorf("UsedBytes dropped by %d, want one %d-byte frame", got, pageSize)
	}
	if got := resident - s.ResidentBytes(); got != pageSize {
		t.Errorf("ResidentBytes dropped by %d, want %d", got, pageSize)
	}
	if got := s.ResidentPages(); got != len(pages)-1 {
		t.Errorf("ResidentPages = %d, want %d", got, len(pages)-1)
	}
	if got := s.NumPages(); got != int64(len(pages)) {
		t.Errorf("NumPages = %d, want %d: a retired page still counts", got, len(pages))
	}
	wantConsumed(t, s, pages[0].Num())

	// Take the frame back, so the pool is full of pinned pages again, and
	// block an allocation on it.
	pages = append(pages[1:], fillPinned(t, bp, s)...)
	blocked := make(chan error, 1)
	go func() {
		p, err := s.NewPage()
		if err == nil {
			err = s.Unpin(p, true)
		}
		blocked <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return bp.evictor.waiters.Load() == 1 }, "NewPage to block on the full pool")
	if err := s.Retire(pages[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("NewPage after a retire freed a frame: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NewPage still blocked after a retire freed a frame")
	}

	st := bp.Stats()
	if w, ev, sp := arr.Stats().Writes, st.Evictions.Load(), st.Spills.Load(); w != 0 || ev != 0 || sp != 0 {
		t.Errorf("drive writes %d, Evictions %d, Spills %d: want 0 — a retired page is never written back or counted as evicted", w, ev, sp)
	}
	for _, p := range pages[1:] {
		if err := checkStamp(p.Bytes(), int64(s.ID()), p.Num()); err != nil {
			t.Error(err)
		}
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	waitEvictorIdle(t, bp)
	checkResidencyGauges(t, []*LocalitySet{s})
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
	if got := bp.UsedBytes(); got != 0 {
		t.Errorf("UsedBytes = %d after DropSet, want 0", got)
	}
}

// TestRetiredPageIsGoneForPinAndPrefetch: once retired, a page is refused by
// Pin and skipped by Prefetch — no read is issued for the image a spill left
// behind, and a hint refused for lack of memory does not charge the consumed
// page to the starved budget. Both a page that never left memory and one that
// was spilled and read back.
func TestRetiredPageIsGoneForPinAndPrefetch(t *testing.T) {
	const pageSize = 4 << 10
	bp, arr := readOncePool(t, 8, pageSize)

	t.Run("never spilled", func(t *testing.T) {
		s := readOnceSet(t, bp, "fresh", pageSize)
		p, err := s.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Retire(p); err != nil {
			t.Fatal(err)
		}
		wantConsumed(t, s, 0)
		if n := s.Prefetch([]int64{0}); n != 0 {
			t.Errorf("Prefetch of a retired page issued %d reads", n)
		}
		if st := arr.Stats(); st.Reads != 0 || st.Writes != 0 {
			t.Errorf("drive traffic %+v for a page that never left memory", st)
		}
		if got := len(s.PageNums()); got != 1 {
			t.Errorf("PageNums lists %d pages, want 1", got)
		}
		if err := bp.DropSet(s); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("spilled and reloaded", func(t *testing.T) {
		s := readOnceSet(t, bp, "spilled", pageSize)
		appendDirty(t, s, 3)
		if err := s.FlushAll(); err != nil {
			t.Fatal(err)
		}
		coolSet(t, bp, s)
		p, err := s.Pin(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkStamp(p.Bytes(), int64(s.ID()), 0); err != nil {
			t.Error(err)
		}
		if err := s.Retire(p); err != nil {
			t.Fatal(err)
		}
		if got := s.DiskBytes(); got != 3*pageSize {
			t.Errorf("DiskBytes = %d, want %d: the retired page's image stays until DropSet", got, 3*pageSize)
		}

		// With frames to spare, a hint would read the retired page's image
		// back in if it did not know better.
		reads, issued := arr.Stats().Reads, bp.Stats().PrefetchesIssued.Load()
		wantConsumed(t, s, 0)
		if n := s.Prefetch([]int64{0}); n != 0 {
			t.Errorf("Prefetch of a retired page issued %d reads", n)
		}

		// With every frame pinned a hint cannot get memory: the live page it
		// names is charged to the starved budget, the consumed one is not.
		filler, err := bp.CreateSet(SetSpec{Name: "filler", PageSize: pageSize})
		if err != nil {
			t.Fatal(err)
		}
		held := fillPinned(t, bp, filler)
		if n := s.Prefetch([]int64{0}); n != 0 {
			t.Errorf("Prefetch of a retired page issued %d reads", n)
		}
		if got := bp.StarvedBudget(); got != 0 {
			t.Errorf("starved budget = %d after hinting a retired page, want 0", got)
		}
		if n := s.Prefetch([]int64{1, 0}); n != 0 {
			t.Errorf("Prefetch on a pool of pinned pages issued %d reads", n)
		}
		if got := bp.StarvedBudget(); got != pageSize {
			t.Errorf("starved budget = %d, want %d: only the live page is owed a frame", got, pageSize)
		}
		if got := arr.Stats().Reads - reads; got != 0 {
			t.Errorf("%d drive reads for hints of a retired page and a starved one", got)
		}
		if got := bp.Stats().PrefetchesIssued.Load() - issued; got != 0 {
			t.Errorf("PrefetchesIssued moved by %d", got)
		}
		for _, p := range held {
			if err := filler.Unpin(p, false); err != nil {
				t.Fatal(err)
			}
		}
		for _, set := range []*LocalitySet{filler, s} {
			if err := bp.DropSet(set); err != nil {
				t.Fatal(err)
			}
		}
	})
	waitEvictorIdle(t, bp)
	if got := bp.UsedBytes(); got != 0 {
		t.Errorf("UsedBytes = %d with every set dropped, want 0", got)
	}
}

// TestRetireOnlyLastPinFrees: a page two readers hold survives the first
// release, whichever kind it is; it is consumed only when the release that
// drops the last pin is a Retire.
func TestRetireOnlyLastPinFrees(t *testing.T) {
	const pageSize = 4 << 10
	bp, _ := readOncePool(t, 8, pageSize)
	s := readOnceSet(t, bp, "shared", pageSize)
	appendDirty(t, s, 3)
	twice := func(num int64) (a, b *Page) {
		t.Helper()
		a, err := s.Pin(num)
		if err != nil {
			t.Fatal(err)
		}
		if b, err = s.Pin(num); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	do := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	a, b := twice(0) // Retire, Retire: the second frees
	do(s.Retire(a))
	if err := checkStamp(b.Bytes(), int64(s.ID()), 0); err != nil {
		t.Errorf("after the first of two retires: %v", err)
	}
	if got := s.ResidentPages(); got != 3 {
		t.Errorf("ResidentPages = %d after the first of two retires, want 3", got)
	}
	do(s.Retire(b))
	wantConsumed(t, s, 0)
	if err := s.Retire(b); err == nil {
		t.Error("a third Retire of a page pinned twice succeeded")
	}

	a, b = twice(1) // Unpin, Retire: the Retire is last and frees
	do(s.Unpin(a, false))
	do(s.Retire(b))
	wantConsumed(t, s, 1)

	a, b = twice(2) // Retire, Unpin: the page outlives the retire
	do(s.Retire(a))
	do(s.Unpin(b, false))
	p, err := s.Pin(2)
	if err != nil {
		t.Fatalf("Pin of a page whose last release was an Unpin: %v", err)
	}
	do(s.Unpin(p, false))

	if got := s.ResidentPages(); got != 1 {
		t.Errorf("ResidentPages = %d, want 1", got)
	}
	checkResidencyGauges(t, []*LocalitySet{s})
	do(bp.DropSet(s))
	if got := bp.UsedBytes(); got != 0 {
		t.Errorf("UsedBytes = %d after DropSet, want 0", got)
	}
}

// TestRetireAfterEvictionClaim: a Pin that arrives while the evictor's
// write-back of the page is in flight waits out the claim, reads the page back
// into a frame of its own, and its Retire frees that frame — the claim's frame
// and the reader's are each released exactly once (the allocator panics on a
// double free), and the pool comes to rest with the frame free.
func TestRetireAfterEvictionClaim(t *testing.T) {
	g := startGatedSpill(t, 2, [3]error{})
	if err := g.set.SetReadOnce(); err != nil {
		t.Fatal(err)
	}
	v := g.victim(t, 0)
	type pinned struct {
		p   *Page
		err error
	}
	got := make(chan pinned, 1)
	go func() {
		p, err := g.set.Pin(v.num)
		got <- pinned{p, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("Pin returned (%v, %v) with the page's write-back still on its drive", r.p, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(g.gate[0])
	close(g.gate[1])
	if err := <-g.writer; err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("Pin after the write-back landed: %v", r.err)
	}
	if err := checkStamp(r.p.Bytes(), 5, v.num); err != nil {
		t.Error(err)
	}
	if err := g.set.Retire(r.p); err != nil {
		t.Fatal(err)
	}
	waitEvictorIdle(t, g.bp)
	wantConsumed(t, g.set, v.num)
	checkResidencyGauges(t, []*LocalitySet{g.set})
	if got := g.bp.alloc.FreeBytes(); got < g.set.pageSize {
		t.Errorf("FreeBytes = %d with the daemon at rest, want the retired page's %d-byte frame", got, g.set.pageSize)
	}
	if err := g.bp.DropSet(g.set); err != nil {
		t.Fatal(err)
	}
	if got := g.bp.UsedBytes(); got != 0 {
		t.Errorf("UsedBytes = %d after DropSet, want 0", got)
	}
}

// TestReadOnceStampRules: the stamp is refused on a write-through set, whose
// pages are user data other readers will ask for, and Retire is refused — the
// pin left in place — on a set that does not carry it.
func TestReadOnceStampRules(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	wt, err := bp.CreateSet(SetSpec{Name: "user", PageSize: 4096, Durability: WriteThrough})
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.SetReadOnce(); err == nil || wt.Attrs().ReadOnce {
		t.Errorf("SetReadOnce on a write-through set = %v, ReadOnce = %v; want it refused", err, wt.Attrs().ReadOnce)
	}
	p, err := wt.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.Retire(p); err == nil {
		t.Error("Retire on a set without the read-once stamp succeeded")
	}
	if err := wt.Unpin(p, true); err != nil {
		t.Errorf("Unpin after the refused Retire: %v (the refusal must leave the pin)", err)
	}
	if p, err = wt.Pin(0); err != nil {
		t.Fatalf("Pin after the refused Retire: %v", err)
	}
	if err := wt.Unpin(p, false); err != nil {
		t.Fatal(err)
	}
}

// TestBeginScanOrdersReadOncePagesResidentFirst: BeginScan stamps the read
// side's attributes and returns the pool's window; an unstamped set gets its
// own list back, a read-once set the resident pages first and the spilled ones
// after, each half in list order.
func TestBeginScanOrdersReadOncePagesResidentFirst(t *testing.T) {
	const pageSize = 4 << 10
	bp, _ := readOncePool(t, 16, pageSize)
	write := func(s *LocalitySet) {
		t.Helper()
		appendDirty(t, s, 8)
		if err := s.FlushAll(); err != nil {
			t.Fatal(err)
		}
		coolSet(t, bp, s)
		for _, num := range []int64{5, 2} { // read two pages back, out of order
			p, err := s.Pin(num)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Unpin(p, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	list := []int64{7, 6, 5, 4, 3, 2, 1, 0}

	plain, err := bp.CreateSet(SetSpec{Name: "plain", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	write(plain)
	order, ra, once := plain.BeginScan(list)
	if once || ra != plain.ReadAhead() || ra == 0 || &order[0] != &list[0] || len(order) != len(list) {
		t.Errorf("BeginScan on an unstamped set = %v, window %d, once %v; want the caller's own list, the pool's window, false", order, ra, once)
	}
	if a := plain.Attrs(); a.Reading != SequentialRead || a.CurrentOp != OpRead {
		t.Errorf("after BeginScan: Reading = %v, CurrentOp = %v; want sequential-read, read", a.Reading, a.CurrentOp)
	}

	s := readOnceSet(t, bp, "once", pageSize)
	write(s)
	order, ra, once = s.BeginScan(list)
	want := []int64{5, 2, 7, 6, 4, 3, 1, 0}
	if !once || ra != s.ReadAhead() || len(order) != len(want) {
		t.Fatalf("BeginScan on a read-once set = %v, window %d, once %v", order, ra, once)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("BeginScan order = %v, want %v (resident first, list order within each half)", order, want)
		}
	}
	if list[0] != 7 || list[7] != 0 {
		t.Errorf("BeginScan reordered the caller's list in place: %v", list)
	}
}
