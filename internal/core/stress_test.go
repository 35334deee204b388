package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pangea/internal/disk"
)

// stamp writes a recognizable pattern derived from (set, page) into buf, and
// check verifies it; together they catch pages whose memory was recycled
// while still reachable, the classic failure of a racy eviction path.
func stamp(buf []byte, set, num int64) {
	n := len(buf)
	if n > 64 {
		n = 64
	}
	for i := 0; i < n; i++ {
		buf[i] = byte(set*31 + num*7 + int64(i))
	}
}

func checkStamp(buf []byte, set, num int64) error {
	n := len(buf)
	if n > 64 {
		n = 64
	}
	for i := 0; i < n; i++ {
		if buf[i] != byte(set*31+num*7+int64(i)) {
			return fmt.Errorf("set %d page %d corrupt at byte %d", set, num, i)
		}
	}
	return nil
}

// TestPoolConcurrentStress hammers Pin/Unpin/NewPage/Touch across several
// locality sets from many goroutines while a churn goroutine creates,
// fills, lifetime-ends and drops extra sets, and two read-once sets are each
// written and then consumed page by page (Prefetch/Pin/Retire) by a pair of
// readers — all under enough memory pressure that the eviction daemon runs
// constantly. Run with -race; the content stamps verify that no page's memory
// is recycled while reachable.
func TestPoolConcurrentStress(t *testing.T) {
	const (
		pageSize = 4 << 10
		nSets    = 4
		nOnce    = 2
		pages    = 24 // logical pages per set: 96 (+48 read-once) vs a 40-page pool
		workers  = 8
		iters    = 300
	)
	arr, err := disk.NewArray(t.TempDir(), 2, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := NewPool(PoolConfig{Memory: 40 * pageSize, Array: arr})
	if err != nil {
		t.Fatal(err)
	}

	sets := make([]*LocalitySet, nSets)
	written := make([]atomic.Int64, nSets) // pages fully written, safe to pin
	for i := range sets {
		s, err := bp.CreateSet(SetSpec{Name: fmt.Sprintf("s%d", i), PageSize: pageSize})
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = s
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Read-once actors: each set is written, then two readers share its pages
	// through one frontier, hinting ahead of it like the scan cursor does, and
	// retire what they read. Some pages are consumed straight from memory,
	// others only after the evictor spilled them and a reader loaded them back.
	once := make([]*LocalitySet, nOnce)
	for i := range once {
		s, err := bp.CreateSet(SetSpec{Name: fmt.Sprintf("once%d", i), PageSize: pageSize})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetReadOnce(); err != nil {
			t.Fatal(err)
		}
		once[i] = s
		id := int64(nSets + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for num := int64(0); num < pages; num++ {
				p, err := s.NewPage()
				if err != nil {
					fail(fmt.Errorf("%s: NewPage: %w", s.Name(), err))
					return
				}
				stamp(p.Bytes(), id, p.Num())
				if err := s.Unpin(p, true); err != nil {
					fail(err)
					return
				}
			}
			order, _, _ := s.BeginScan(s.PageNums())
			var next atomic.Int64
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(order) {
							return
						}
						s.Prefetch(order[i+1 : min(i+3, len(order))])
						p, err := s.Pin(order[i])
						if err != nil {
							fail(fmt.Errorf("%s: Pin(%d): %w", s.Name(), order[i], err))
							return
						}
						if err := checkStamp(p.Bytes(), id, order[i]); err != nil {
							fail(err)
						}
						if err := s.Retire(p); err != nil {
							fail(err)
							return
						}
					}
				}()
			}
			readers.Wait()
		}()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < iters; it++ {
				si := rng.Intn(nSets)
				s := sets[si]
				avail := written[si].Load()
				if avail < pages && (avail == 0 || rng.Intn(3) == 0) {
					p, err := s.NewPage()
					if err != nil {
						fail(fmt.Errorf("worker %d: NewPage: %w", w, err))
						return
					}
					stamp(p.Bytes(), int64(si), p.Num())
					if rng.Intn(4) == 0 {
						s.Touch(p)
					}
					if err := s.Unpin(p, true); err != nil {
						fail(err)
						return
					}
					// Only count pages written in order; concurrent NewPage
					// calls may interleave, so advance conservatively.
					for {
						cur := written[si].Load()
						if p.Num() != cur || written[si].CompareAndSwap(cur, cur+1) {
							break
						}
					}
					continue
				}
				num := rng.Int63n(avail)
				p, err := s.Pin(num)
				if err != nil {
					fail(fmt.Errorf("worker %d: Pin(%s,%d): %w", w, s.Name(), num, err))
					return
				}
				if err := checkStamp(p.Bytes(), int64(si), num); err != nil {
					fail(err)
				}
				if err := s.Unpin(p, false); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}

	// Churn goroutine: transient sets appear, fill, end their lifetime and
	// vanish, exercising DropSet against the eviction daemon.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 10; round++ {
			c, err := bp.CreateSet(SetSpec{Name: fmt.Sprintf("churn%d", round), PageSize: pageSize})
			if err != nil {
				fail(err)
				return
			}
			for i := 0; i < 6; i++ {
				p, err := c.NewPage()
				if err != nil {
					fail(err)
					return
				}
				stamp(p.Bytes(), -1, p.Num())
				if err := c.Unpin(p, true); err != nil {
					fail(err)
					return
				}
			}
			c.EndLifetime()
			if err := bp.DropSet(c); err != nil {
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

	// Invariants after the storm: accounting is sane, every allocator
	// shard's physical chain is intact, every set's admission gauge matches
	// its resident map (each release path unwound it exactly once), no page
	// is left pinned, every page of the read-once sets is consumed and none
	// of them resident (no hint read a retired page's stale image back in),
	// and every page that was fully written survives with its contents intact.
	if err := bp.alloc.CheckConsistency(); err != nil {
		t.Fatalf("allocator inconsistent after stress: %v", err)
	}
	all := append(append([]*LocalitySet(nil), sets...), once...)
	checkResidencyGauges(t, all)
	for _, s := range all {
		s.mu.Lock()
		for num, p := range s.resident {
			if p.pin != 0 {
				t.Errorf("set %s: page %d left with %d pins", s.Name(), num, p.pin)
			}
		}
		s.mu.Unlock()
	}
	for _, s := range once {
		for num := int64(0); num < pages; num++ {
			wantConsumed(t, s, num)
		}
		if got := s.ResidentPages(); got != 0 {
			t.Errorf("set %s: %d pages resident with every page consumed", s.Name(), got)
		}
		if err := bp.DropSet(s); err != nil {
			t.Fatalf("DropSet(%s): %v", s.Name(), err)
		}
	}
	if used := bp.UsedBytes(); used < 0 || used > bp.Capacity() {
		t.Fatalf("UsedBytes %d outside [0, %d]", used, bp.Capacity())
	}
	if peak := bp.PeakBytes(); peak > bp.Capacity() {
		t.Fatalf("PeakBytes %d exceeds capacity %d", peak, bp.Capacity())
	}
	for si, s := range sets {
		if int64(s.ResidentPages()) > s.NumPages() {
			t.Fatalf("set %s: resident %d > total %d", s.Name(), s.ResidentPages(), s.NumPages())
		}
		for num := int64(0); num < written[si].Load(); num++ {
			p, err := s.Pin(num)
			if err != nil {
				t.Fatalf("final Pin(%s,%d): %v", s.Name(), num, err)
			}
			if err := checkStamp(p.Bytes(), int64(si), num); err != nil {
				t.Error(err)
			}
			if err := s.Unpin(p, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := bp.DropSet(s); err != nil {
			t.Fatalf("DropSet(%s): %v", s.Name(), err)
		}
		if got := s.ResidentBytes(); got != 0 {
			t.Errorf("set %s: ResidentBytes = %d after DropSet, want 0", s.Name(), got)
		}
	}
	if bp.UsedBytes() != 0 {
		t.Errorf("UsedBytes = %d after dropping every set, want 0", bp.UsedBytes())
	}
}

// TestPoolAllocatorShardStress exercises the sharded allocation path at
// pool level with a multi-shard arena: workers churn pages on their own
// sets (each homed on a shard by set ID) and periodically drop/recreate
// them, while interleaved per-shard consistency checks run. Run with -race.
func TestPoolAllocatorShardStress(t *testing.T) {
	const (
		pageSize = 4 << 10
		workers  = 8
		iters    = 400
	)
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	// 8 MiB arena in four 2 MiB shards whatever the core count, so workers
	// route to different home shards and the checker walks all four. (At
	// this size no shard fills; TestShuffleMixLeavesWholePoolToSurvivor is
	// the pool-level test that steals.)
	bp, err := NewPool(PoolConfig{Memory: 8 << 20, Array: arr, AllocShards: 4})
	if err != nil {
		t.Fatal(err)
	}

	var workersWG sync.WaitGroup
	errCh := make(chan error, workers+1)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			gen := 0
			s, err := bp.CreateSet(SetSpec{Name: fmt.Sprintf("w%d.%d", w, gen), PageSize: pageSize})
			if err != nil {
				fail(err)
				return
			}
			for it := 0; it < iters; it++ {
				p, err := s.NewPage()
				if err != nil {
					fail(fmt.Errorf("worker %d: NewPage: %w", w, err))
					return
				}
				stamp(p.Bytes(), int64(w), p.Num())
				if err := s.Unpin(p, false); err != nil {
					fail(err)
					return
				}
				// Recycle the whole set periodically so the allocator sees
				// batched frees and fresh home-shard assignments.
				if s.NumPages() >= 64 {
					if err := bp.DropSet(s); err != nil {
						fail(fmt.Errorf("worker %d: DropSet: %w", w, err))
						return
					}
					gen++
					s, err = bp.CreateSet(SetSpec{Name: fmt.Sprintf("w%d.%d", w, gen), PageSize: pageSize})
					if err != nil {
						fail(err)
						return
					}
				}
			}
			if err := bp.DropSet(s); err != nil {
				fail(err)
			}
		}(w)
	}
	// Interleaved consistency checks for as long as the storm runs.
	stop := make(chan struct{})
	var checkerWG sync.WaitGroup
	checkerWG.Add(1)
	go func() {
		defer checkerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := bp.alloc.CheckConsistency(); err != nil {
				fail(fmt.Errorf("mid-stress shard check: %w", err))
				return
			}
		}
	}()
	workersWG.Wait()
	close(stop)
	checkerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := bp.UsedBytes(); got != 0 {
		t.Errorf("UsedBytes = %d after dropping every set, want 0", got)
	}
	if err := bp.alloc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPinWhileEvicting pins one page from many goroutines while
// memory pressure forces that page in and out of memory, exercising the
// evicting/loading wait paths of Pin against the daemon.
func TestConcurrentPinWhileEvicting(t *testing.T) {
	const pageSize = 4 << 10
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := NewPool(PoolConfig{Memory: 6 * pageSize, Array: arr})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := bp.CreateSet(SetSpec{Name: "hot", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	p, err := hot.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	stamp(p.Bytes(), 0, 0)
	if err := hot.Unpin(p, true); err != nil {
		t.Fatal(err)
	}
	cold, err := bp.CreateSet(SetSpec{Name: "cold", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 9)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p, err := hot.Pin(0)
				if err != nil {
					errCh <- err
					return
				}
				if err := checkStamp(p.Bytes(), 0, 0); err != nil {
					errCh <- err
				}
				if err := hot.Unpin(p, false); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	// Pressure: stream cold pages through the pool so "hot" keeps getting
	// selected for eviction between pins.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			p, err := cold.NewPage()
			if err != nil {
				errCh <- err
				return
			}
			if err := cold.Unpin(p, true); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
