package core

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pangea/internal/disk"
)

// spillPool builds a pool over an n-drive array with the given per-drive
// config, sized in pages.
func spillPool(t *testing.T, drives int, cfg disk.Config, pages int64, pageSize int64) (*BufferPool, *disk.Array) {
	t.Helper()
	arr, err := disk.NewArray(t.TempDir(), drives, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := NewPool(PoolConfig{Memory: pages * pageSize, Array: arr, AllocShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	return bp, arr
}

// TestSpillDistributesAcrossDrives forces heavy write-back through the
// per-drive pipeline and verifies every drive of the array absorbed spill
// writes, the in-flight gauge returned to zero, and every spilled page
// reads back intact.
func TestSpillDistributesAcrossDrives(t *testing.T) {
	const pageSize = 4 << 10
	const drives = 4
	bp, arr := spillPool(t, drives, disk.Unthrottled(), 8, pageSize)
	s, err := bp.CreateSet(SetSpec{Name: "wb", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	const total = 64
	for i := 0; i < total; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		stamp(p.Bytes(), 1, p.Num())
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := bp.Stats().Spills.Load(); got == 0 {
		t.Fatal("no spills despite 8x memory pressure")
	}
	for i, ds := range arr.PerDriveStats() {
		if ds.Writes == 0 {
			t.Errorf("drive %d absorbed no spill writes: pipeline not spread across the array", i)
		}
	}
	waitEvictorIdle(t, bp)
	if got := bp.Stats().SpillsInFlight.Load(); got != 0 {
		t.Fatalf("SpillsInFlight = %d with the daemon at rest, want 0", got)
	}
	for num := int64(0); num < total; num++ {
		p, err := s.Pin(num)
		if err != nil {
			t.Fatalf("Pin(%d): %v", num, err)
		}
		if err := checkStamp(p.Bytes(), 1, num); err != nil {
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

// TestSpillErrorReachesBlockedAllocators injects a write fault on one drive
// of a two-drive array: once only that drive's pages remain evictable, the
// failed round's error must surface to allocations blocked in allocMem via
// the errSince/timeoutErr fan-in — not vanish into the daemon.
func TestSpillErrorReachesBlockedAllocators(t *testing.T) {
	const pageSize = 4 << 10
	bp, arr := spillPool(t, 2, disk.Unthrottled(), 8, pageSize)
	sentinel := errors.New("injected drive-1 failure")
	arr.Disk(1).SetWriteFault(func() error { return sentinel })

	s, err := bp.CreateSet(SetSpec{Name: "wb", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for i := 0; i < 500 && sawErr == nil; i++ {
		p, err := s.NewPage()
		if err != nil {
			sawErr = err
			break
		}
		stamp(p.Bytes(), 2, p.Num())
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	if sawErr == nil {
		t.Fatal("allocations kept succeeding although half the array cannot spill")
	}
	if !errors.Is(sawErr, sentinel) {
		t.Fatalf("blocked allocator got %v, want the injected %v", sawErr, sentinel)
	}

	// Heal the drive, then verify no page was lost: victims whose
	// write-back failed had to stay resident and dirty (never dropped), so
	// every page must still read back with its stamp intact.
	arr.Disk(1).SetWriteFault(nil)
	for num := int64(0); num < s.NumPages(); num++ {
		p, err := s.Pin(num)
		if err != nil {
			t.Fatalf("Pin(%d) after failed round: %v", num, err)
		}
		if err := checkStamp(p.Bytes(), 2, num); err != nil {
			t.Error(err)
		}
		if err := s.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}

	// The retried write-back must drain the backlog and let allocations
	// proceed again.
	for i := 0; i < 16; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatalf("NewPage after healing the drive: %v", err)
		}
		stamp(p.Bytes(), 2, p.Num())
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
}

// TestSpillAllDrivesFailing: with every drive faulted, each eviction round
// fails, no dirty page may be dropped, and the error must keep surfacing
// until the fault clears.
func TestSpillAllDrivesFailing(t *testing.T) {
	const pageSize = 4 << 10
	bp, arr := spillPool(t, 1, disk.Unthrottled(), 6, pageSize)
	sentinel := errors.New("injected whole-array failure")
	arr.Disk(0).SetWriteFault(func() error { return sentinel })
	s, err := bp.CreateSet(SetSpec{Name: "wb", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for i := 0; i < 64 && sawErr == nil; i++ {
		p, err := s.NewPage()
		if err != nil {
			sawErr = err
			break
		}
		stamp(p.Bytes(), 3, p.Num())
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(sawErr, sentinel) {
		t.Fatalf("got %v, want the injected %v", sawErr, sentinel)
	}
	arr.Disk(0).SetWriteFault(nil)
	// Failed spill rounds kept every victim resident — the admission gauge
	// must not have been unwound for a page that never left the pool.
	checkResidencyGauges(t, []*LocalitySet{s})
	for num := int64(0); num < s.NumPages(); num++ {
		p, err := s.Pin(num)
		if err != nil {
			t.Fatalf("Pin(%d): %v", num, err)
		}
		if err := checkStamp(p.Bytes(), 3, num); err != nil {
			t.Error(err)
		}
		if err := s.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
	if got := s.ResidentBytes(); got != 0 {
		t.Errorf("ResidentBytes = %d after DropSet, want 0", got)
	}
}

// TestSpillPinRaceStress pins victim pages from many goroutines while the
// per-drive writers are genuinely in flight (throttled drives widen the
// window), exercising the claim/re-validate protocol against asynchronous
// completion. Run with -race; the stamps catch any frame released or
// recycled while a writer or a pinner could still touch it.
func TestSpillPinRaceStress(t *testing.T) {
	const pageSize = 4 << 10
	const hotPages = 4
	cfg := disk.Config{ReadMBps: 400, WriteMBps: 200}
	bp, _ := spillPool(t, 2, cfg, 8, pageSize)
	hot, err := bp.CreateSet(SetSpec{Name: "hot", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hotPages; i++ {
		p, err := hot.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		stamp(p.Bytes(), 7, p.Num())
		if err := hot.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := bp.CreateSet(SetSpec{Name: "cold", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 6
	iters := 150
	if testing.Short() {
		iters = 60
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				num := int64((w + i) % hotPages)
				p, err := hot.Pin(num)
				if err != nil {
					fail(fmt.Errorf("worker %d: Pin(%d): %w", w, num, err))
					return
				}
				if err := checkStamp(p.Bytes(), 7, num); err != nil {
					fail(err)
				}
				if err := hot.Unpin(p, false); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	// Pressure: stream cold dirty pages so the daemon keeps claiming hot
	// pages and handing them to the in-flight writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			p, err := cold.NewPage()
			if err != nil {
				fail(fmt.Errorf("cold NewPage: %w", err))
				return
			}
			stamp(p.Bytes(), 8, p.Num())
			if err := cold.Unpin(p, true); err != nil {
				fail(err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The daemon may still be draining a background round kicked by the
	// storm's tail; the gauge must read zero once it comes to rest.
	waitEvictorIdle(t, bp)
	if got := bp.Stats().SpillsInFlight.Load(); got != 0 {
		t.Fatalf("SpillsInFlight = %d with the daemon at rest, want 0", got)
	}
	checkResidencyGauges(t, []*LocalitySet{hot, cold})
	for _, s := range []*LocalitySet{hot, cold} {
		if err := bp.DropSet(s); err != nil {
			t.Fatal(err)
		}
		if got := s.ResidentBytes(); got != 0 {
			t.Errorf("set %s: ResidentBytes = %d after DropSet, want 0", s.Name(), got)
		}
	}
	if bp.UsedBytes() != 0 {
		t.Errorf("UsedBytes = %d after dropping every set, want 0", bp.UsedBytes())
	}
}

// gatedSpill is the fixture of the streaming write-back tests: a pool whose
// high watermark admits two write-backs in flight, every write held at a
// gate, and one goroutine appending dirty pages until it blocks on the full
// pool. With two drives, gate d holds drive d's writes; with one, gate 0 holds
// the first write to reach the drive, gate 1 the second and gate 2 every later
// one. fault[i], when set, is what the writes held at gate i return once it
// opens.
type gatedSpill struct {
	bp      *BufferPool
	arr     *disk.Array
	set     *LocalitySet
	gate    [3]chan struct{}
	fault   [3]error
	entered [3]atomic.Int32
	// writer reports the appender's outcome: the first NewPage error, or nil
	// once a NewPage that had to wait for memory has returned.
	writer chan error
}

func startGatedSpill(t *testing.T, drives int, fault [3]error) *gatedSpill {
	t.Helper()
	const pageSize = 4 << 10
	arr, err := disk.NewArray(t.TempDir(), drives, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := NewPool(PoolConfig{Memory: 16 * pageSize, Array: arr, AllocShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedSpill{bp: bp, arr: arr, fault: fault, writer: make(chan error, 1)}
	for i := range g.gate {
		g.gate[i] = make(chan struct{})
	}
	var arrivals atomic.Int32
	for d := 0; d < drives; d++ {
		arr.Disk(d).SetWriteFault(func() error {
			i := d
			if drives == 1 {
				i = min(int(arrivals.Add(1))-1, 2)
			}
			g.entered[i].Add(1)
			<-g.gate[i]
			return g.fault[i]
		})
	}
	if g.set, err = bp.CreateSet(SetSpec{Name: "wb", PageSize: pageSize}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			waited := bp.alloc.FreeBytes() < pageSize
			p, err := g.set.NewPage()
			if err != nil {
				g.writer <- err
				return
			}
			stamp(p.Bytes(), 5, p.Num())
			if err := g.set.Unpin(p, true); err != nil || waited {
				g.writer <- err
				return
			}
		}
	}()
	// The appender fills the pool and blocks; the daemon claims one victim
	// per round for a set under write, places them round-robin, and stops
	// once the bytes in flight cover the high watermark: one write per drive,
	// or both at the one drive — its queue dispatches two at once.
	waitFor(t, 5*time.Second, func() bool {
		return g.entered[0].Load() == 1 && g.entered[1].Load() == 1
	}, "two write-backs to reach their gates")
	if got := bp.Stats().SpillsInFlight.Load(); got != 2 {
		t.Fatalf("SpillsInFlight = %d with both writes gated, want 2", got)
	}
	return g
}

// victim returns the page whose write-back is in flight on drive d.
func (g *gatedSpill) victim(t *testing.T, d int32) *Page {
	t.Helper()
	g.set.mu.Lock()
	defer g.set.mu.Unlock()
	for num, p := range g.set.resident {
		if loc, err := g.set.file.Locate(num); p.evicting && err == nil && loc.Drive == d {
			return p
		}
	}
	t.Fatalf("no write-back in flight on drive %d", d)
	return nil
}

// finish opens the remaining gates, heals the drives, and checks that the
// pool comes to rest with its gauges paired and every page intact.
func (g *gatedSpill) finish(t *testing.T) {
	t.Helper()
	for i := range g.gate {
		select {
		case <-g.gate[i]:
		default:
			close(g.gate[i])
		}
	}
	for d := 0; d < g.arr.Len(); d++ {
		g.arr.Disk(d).SetWriteFault(nil)
	}
	waitEvictorIdle(t, g.bp)
	if got := g.bp.Stats().SpillsInFlight.Load(); got != 0 {
		t.Fatalf("SpillsInFlight = %d with the daemon at rest, want 0", got)
	}
	checkResidencyGauges(t, []*LocalitySet{g.set})
	for num := int64(0); num < g.set.NumPages(); num++ {
		p, err := g.set.Pin(num)
		if err != nil {
			t.Fatalf("Pin(%d): %v", num, err)
		}
		if err := checkStamp(p.Bytes(), 5, num); err != nil {
			t.Error(err)
		}
		if err := g.set.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.bp.DropSet(g.set); err != nil {
		t.Fatal(err)
	}
}

// TestSpillCompletionUnblocksWithoutBarrier: with a write-back in flight on
// each drive, the first one to land frees its frame and wakes the blocked
// NewPage while the other is still on its drive — completion is per page,
// there is no batch to wait out.
func TestSpillCompletionUnblocksWithoutBarrier(t *testing.T) {
	g := startGatedSpill(t, 2, [3]error{})
	close(g.gate[0])
	select {
	case err := <-g.writer:
		if err != nil {
			t.Fatalf("NewPage after drive 0's write landed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NewPage still blocked after one write-back landed: a barrier waits for the other drive")
	}
	if p := g.victim(t, 1); !p.dirty {
		t.Error("drive 1's victim is clean while its write is still gated")
	}
	if got := g.bp.Stats().SpillsInFlight.Load(); got < 1 {
		t.Errorf("SpillsInFlight = %d with drive 1 still gated, want >= 1", got)
	}
	g.finish(t)
}

// TestSpillFailureKeepsVictimAndReportsToWaiter: one drive fails its write.
// That victim stays resident and dirty with its claim cleared, the blocked
// allocation gets the error, and the other drive's victim is still released
// when its own write lands.
func TestSpillFailureKeepsVictimAndReportsToWaiter(t *testing.T) {
	sentinel := errors.New("injected drive-1 failure")
	g := startGatedSpill(t, 2, [3]error{nil, sentinel})
	ok, failing := g.victim(t, 0), g.victim(t, 1)
	evictions := g.bp.Stats().Evictions.Load()

	close(g.gate[1])
	select {
	case err := <-g.writer:
		if !errors.Is(err, sentinel) {
			t.Fatalf("blocked NewPage got %v, want the injected %v", err, sentinel)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the failed write-back never reached the blocked allocation")
	}
	g.set.mu.Lock()
	if p := g.set.resident[failing.num]; p != failing || p.evicting || !p.dirty {
		t.Errorf("failed victim %d: resident=%v evicting=%v dirty=%v, want resident, unclaimed and dirty",
			failing.num, p == failing, failing.evicting, failing.dirty)
	}
	if !ok.evicting {
		t.Errorf("drive 0's victim %d lost its claim while its write is still gated", ok.num)
	}
	g.set.mu.Unlock()
	if got := g.bp.Stats().Evictions.Load(); got != evictions {
		t.Errorf("Evictions moved by %d with one write failed and one gated", got-evictions)
	}

	close(g.gate[0])
	// The evictor, still short of memory, may retry and evict more once the
	// first write lands, so wait for the victim itself to leave, not for an
	// exact count.
	waitFor(t, 5*time.Second, func() bool {
		g.set.mu.Lock()
		defer g.set.mu.Unlock()
		_, still := g.set.resident[ok.num]
		return !still
	}, "drive 0's victim to be released")
	if got := g.bp.Stats().Evictions.Load(); got < evictions+1 {
		t.Errorf("Evictions moved by %d after drive 0's victim was released, want at least 1", got-evictions)
	}
	g.finish(t)
}

// TestDropSetWaitsOutStreamingWriteBacks: DropSet called with a write-back in
// flight returns only after its completion has cleared the claim, and leaves
// no resident byte and no used arena byte behind.
func TestDropSetWaitsOutStreamingWriteBacks(t *testing.T) {
	g := startGatedSpill(t, 2, [3]error{})
	// Let drive 0's write land so the appender gets its page and goes away;
	// drive 1's is still in flight when the set is dropped.
	close(g.gate[0])
	if err := <-g.writer; err != nil {
		t.Fatal(err)
	}
	dropped := make(chan error, 1)
	go func() { dropped <- g.bp.DropSet(g.set) }()
	select {
	case err := <-dropped:
		t.Fatalf("DropSet returned (%v) with a write-back still on its drive", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(g.gate[1])
	if err := <-dropped; err != nil {
		t.Fatalf("DropSet: %v", err)
	}
	if got := g.set.ResidentBytes(); got != 0 {
		t.Errorf("ResidentBytes = %d after DropSet, want 0", got)
	}
	waitEvictorIdle(t, g.bp)
	if got := g.bp.UsedBytes(); got != 0 {
		t.Errorf("UsedBytes = %d after DropSet, want 0", got)
	}
}

// TestSpillCompletesOutOfOrderOnOneDrive: two victims are at the same drive at
// once and the second write lands while the first is held. Completion is per
// page: the second's frame is freed and the blocked NewPage returns with the
// first still claimed; when the first then fails, its page stays resident and
// dirty and the error reaches whoever is blocked at that moment; and a DropSet
// issued with a third write still in flight waits for it and leaves nothing
// resident.
func TestSpillCompletesOutOfOrderOnOneDrive(t *testing.T) {
	sentinel := errors.New("injected failure of the first write")
	g := startGatedSpill(t, 1, [3]error{sentinel})
	evictions := g.bp.Stats().Evictions.Load()

	close(g.gate[1])
	select {
	case err := <-g.writer:
		if err != nil {
			t.Fatalf("NewPage after the second write landed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NewPage still blocked after the second write-back landed: completion waits for the first")
	}
	waitFor(t, 5*time.Second, func() bool { return g.bp.Stats().Evictions.Load() == evictions+1 }, "the second victim to be released")
	if got := g.bp.Stats().SpillsInFlight.Load(); got != 1 {
		t.Fatalf("SpillsInFlight = %d with the first write gated, want 1", got)
	}
	first := g.victim(t, 0)
	if !first.dirty {
		t.Error("the first victim is clean while its write is still gated")
	}

	// A second allocation blocks behind the first write and a third, which
	// the daemon claims to cover the high watermark.
	waiter := make(chan error, 1)
	go func() {
		_, err := g.set.NewPage()
		waiter <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return g.entered[2].Load() == 1 }, "a third write-back to reach the drive")
	close(g.gate[0])
	select {
	case err := <-waiter:
		if !errors.Is(err, sentinel) {
			t.Fatalf("blocked NewPage got %v, want the injected %v", err, sentinel)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the failed first write-back never reached the blocked allocation")
	}
	g.set.mu.Lock()
	if p := g.set.resident[first.num]; p != first || p.evicting || !p.dirty {
		t.Errorf("failed victim %d: resident=%v evicting=%v dirty=%v, want resident, unclaimed and dirty",
			first.num, p == first, first.evicting, first.dirty)
	}
	g.set.mu.Unlock()
	if got := g.bp.Stats().Evictions.Load(); got != evictions+1 {
		t.Errorf("Evictions moved by %d with one write landed, one failed and one gated, want 1", got-evictions)
	}

	dropped := make(chan error, 1)
	go func() { dropped <- g.bp.DropSet(g.set) }()
	select {
	case err := <-dropped:
		t.Fatalf("DropSet returned (%v) with a write-back still on the drive", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(g.gate[2])
	if err := <-dropped; err != nil {
		t.Fatalf("DropSet: %v", err)
	}
	if got := g.set.ResidentBytes(); got != 0 {
		t.Errorf("ResidentBytes = %d after DropSet, want 0", got)
	}
	waitEvictorIdle(t, g.bp)
	if got := g.bp.Stats().SpillsInFlight.Load(); got != 0 {
		t.Errorf("SpillsInFlight = %d with the daemon at rest, want 0", got)
	}
	if got := g.bp.UsedBytes(); got != 0 {
		t.Errorf("UsedBytes = %d after DropSet, want 0", got)
	}
}

// TestTransientSetOpensNoFileUntilItSpills: an execution set that stays in
// memory leaves no file on any drive, a spill creates the data files of the
// drives its pages were placed on and no others, and no meta file appears
// before one is flushed.
func TestTransientSetOpensNoFileUntilItSpills(t *testing.T) {
	const pageSize = 4 << 10
	const drives = 4
	bp, arr := spillPool(t, drives, disk.Unthrottled(), 8, pageSize)
	files := func() (names []string) {
		for d := 0; d < drives; d++ {
			ents, err := os.ReadDir(arr.Disk(d).Dir())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				names = append(names, fmt.Sprintf("%d/%s", d, e.Name()))
			}
		}
		return names
	}
	fill := func(s *LocalitySet, n int) {
		for i := 0; i < n; i++ {
			p, err := s.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			p.Bytes()[0] = byte(i)
			if err := s.Unpin(p, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	mem, err := bp.CreateSet(SetSpec{Name: "mem", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	fill(mem, 4)
	if got := files(); len(got) != 0 {
		t.Fatalf("a set that fits in memory left files %v", got)
	}
	if err := bp.DropSet(mem); err != nil {
		t.Fatal(err)
	}

	s, err := bp.CreateSet(SetSpec{Name: "spill", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 10)
	// The evictor may still be placing pages, so the files are read between
	// two reads of the placements: before ⊆ files ⊆ after.
	placed := func() map[string]bool {
		m := map[string]bool{}
		for _, num := range s.file.PageNums() {
			loc, err := s.file.Locate(num)
			if err != nil {
				t.Fatal(err)
			}
			m[fmt.Sprintf("%d/spill.%d.data", loc.Drive, s.ID())] = true
		}
		return m
	}
	before := placed()
	got := files()
	after := placed()
	if len(before) == 0 {
		t.Fatal("ten pages in an eight-page pool spilled nothing")
	}
	for name := range before {
		if !slices.Contains(got, name) {
			t.Errorf("a page was placed on %s, but the file is missing (files %v)", name, got)
		}
	}
	for _, name := range got {
		if !after[name] {
			t.Errorf("file %s was created, but no page was placed there (%v)", name, after)
		}
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
	if got := files(); len(got) != 0 {
		t.Fatalf("DropSet left files %v", got)
	}
}
