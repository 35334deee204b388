package memory

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestShardedBasicAllocFree(t *testing.T) {
	s := NewShardedTLSF(NewArena(8<<20), 4)
	if s.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", s.Shards())
	}
	off, err := s.AllocAffinity(1000, 2)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if off%16 != 0 {
		t.Fatalf("offset %d not 16-aligned", off)
	}
	if got := s.UsableSize(off); got < 1000 {
		t.Fatalf("UsableSize = %d, want >= 1000", got)
	}
	s.Free(off)
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 0 {
		t.Fatalf("Used = %d after freeing everything", s.Used())
	}
}

// TestShardedTinyArenaStaysSingle: arenas too small to shard stay one shard
// heap, whatever shard count is asked for.
func TestShardedTinyArenaStaysSingle(t *testing.T) {
	if got := NewShardedTLSF(NewArena(64<<10), 0).Shards(); got != 1 {
		t.Fatalf("64 KiB arena got %d shards, want 1", got)
	}
	if got := NewShardedTLSF(NewArena(64<<10), 8).Shards(); got != 1 {
		t.Fatalf("forced shards on tiny arena got %d, want 1", got)
	}
}

// TestShardedHomeRouting: allocations with the same hint land in the home
// shard while it has space.
func TestShardedHomeRouting(t *testing.T) {
	s := NewShardedTLSF(NewArena(4<<20), 4)
	for hint := 0; hint < 8; hint++ {
		home := s.HomeShard(hint)
		off, err := s.AllocAffinity(4096, hint)
		if err != nil {
			t.Fatal(err)
		}
		sh := s.shards[home]
		if off < sh.base || off >= sh.limit {
			t.Errorf("hint %d: offset %d outside home shard %d [%d,%d)", hint, off, home, sh.base, sh.limit)
		}
		s.Free(off)
	}
}

// TestShardedSteal: a single hot hint must be able to consume the whole
// arena, overflowing from its exhausted home shard into the others.
func TestShardedSteal(t *testing.T) {
	s := NewShardedTLSF(NewArena(4<<20), 4)
	var offs []int64
	for {
		off, err := s.AllocAffinity(64<<10, 0) // all traffic homed on shard 0
		if errors.Is(err, ErrOutOfMemory) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	// 4 MiB arena, 64 KiB pages: stealing must get well past one shard.
	if len(offs) < 48 {
		t.Fatalf("only %d×64KiB allocated from a 4 MiB arena; stealing failed", len(offs))
	}
	for _, off := range offs {
		s.Free(off)
	}
	if s.Used() != 0 {
		t.Fatalf("leaked %d bytes", s.Used())
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedStealRingOrder: the steal walks one ring from the home shard,
// and ErrOutOfMemory comes only once every shard has been tried. 4 shards,
// all traffic homed on shard 1.
//
// "order" exhausts shards one allocation at a time, each sized to fill a
// whole shard: they land in shards 1, 2, 3, 0, and a 5th fails. A region
// freed off the home shard then serves the next home-routed allocation.
//
// "sweep" fills the arena with 64 KiB blocks: every shard holds some at OOM,
// and two adjacent blocks freed off the home shard serve the next
// home-routed allocation.
func TestShardedStealRingOrder(t *testing.T) {
	const shards, home = 4, 1
	t.Run("order", func(t *testing.T) {
		s := NewShardedTLSF(NewArena(4<<20), shards)
		big := s.MaxAlloc() // one block fills one shard
		var offs []int64
		for i, want := range []int{1, 2, 3, 0} {
			off, err := s.AllocAffinity(big, home)
			if err != nil {
				t.Fatalf("alloc %d: %v", i, err)
			}
			if got := s.ShardOf(off); got != want {
				t.Errorf("alloc %d landed in shard %d, want %d (ring order from home 1)", i, got, want)
			}
			offs = append(offs, off)
		}
		if _, err := s.AllocAffinity(big, home); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("5th shard-filling alloc: err = %v, want ErrOutOfMemory", err)
		}
		s.Free(offs[2])
		off, err := s.AllocAffinity(big, home)
		if err != nil {
			t.Fatalf("alloc after freeing shard %d: %v (every shard must be tried before OOM)", s.ShardOf(offs[2]), err)
		}
		if got, want := s.ShardOf(off), s.ShardOf(offs[2]); got != want {
			t.Errorf("refill landed in shard %d, want the freed shard %d", got, want)
		}
		offs[2] = off
		for _, off := range offs {
			s.Free(off)
		}
		if err := checkQuiesced(s, true); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sweep", func(t *testing.T) {
		s := NewShardedTLSF(NewArena(4<<20), shards)
		var offs []int64
		perShard := make([]int64, s.Shards())
		for {
			off, err := s.AllocAffinity(64<<10, home)
			if errors.Is(err, ErrOutOfMemory) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			offs = append(offs, off)
			perShard[s.ShardOf(off)]++
		}
		if len(offs) < 48 {
			t.Fatalf("only %d×64KiB allocated from a 4 MiB arena; stealing failed", len(offs))
		}
		for i, n := range perShard {
			if n == 0 {
				t.Errorf("shard %d holds no block at OOM; the sweep skipped it", i)
			}
		}
		// Two adjacent blocks off the home shard coalesce into one region a
		// 64 KiB request is sure to find despite TLSF's class round-up.
		other := -1
		for i, off := range offs {
			if s.ShardOf(off) != home && i+1 < len(offs) && s.ShardOf(offs[i+1]) == s.ShardOf(off) {
				other = i
				break
			}
		}
		if other < 0 {
			t.Fatal("no adjacent allocations landed off the home shard")
		}
		freed := s.ShardOf(offs[other])
		s.Free(offs[other])
		s.Free(offs[other+1])
		offs = append(offs[:other], offs[other+2:]...)
		off, err := s.AllocAffinity(64<<10, home)
		if err != nil {
			t.Fatalf("alloc after freeing in shard %d: %v (every shard must be tried before OOM)", freed, err)
		}
		if got := s.ShardOf(off); got != freed {
			t.Errorf("refill landed in shard %d, want the freed shard %d", got, freed)
		}
		offs = append(offs, off)
		for _, off := range offs {
			s.Free(off)
		}
		if err := checkQuiesced(s, true); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardedFreedSmallBlocksServeMaxAlloc: freed blocks coalesce in their
// shard at once, so after a shard was filled with small blocks and emptied
// again, the largest request the allocator promises succeeds on the first
// sweep — nothing is held back from other sizes.
func TestShardedFreedSmallBlocksServeMaxAlloc(t *testing.T) {
	s := NewShardedTLSF(NewArena(2<<20), 1)
	var offs []int64
	for {
		off, err := s.AllocAffinity(4096, 0)
		if errors.Is(err, ErrOutOfMemory) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	for _, off := range offs {
		s.Free(off)
	}
	if err := checkQuiesced(s, true); err != nil {
		t.Fatal(err)
	}
	big, err := s.Alloc(s.MaxAlloc())
	if err != nil {
		t.Fatalf("MaxAlloc()-sized alloc after freeing every small block: %v", err)
	}
	s.Free(big)
	if s.Used() != 0 {
		t.Fatalf("leaked %d bytes", s.Used())
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMaxAllocSatisfiable: an allocation of exactly MaxAlloc bytes
// must succeed on an empty allocator for awkward arena sizes too — the
// promise CreateSet's page-size validation relies on (TLSF's class
// round-up must not make the reported maximum unreachable).
func TestShardedMaxAllocSatisfiable(t *testing.T) {
	for _, size := range []int64{1 << 20, 2<<20 + 16, 12_345_678, 100_000_000} {
		for _, shards := range []int{1, 4, 8} {
			s := NewShardedTLSF(NewArena(size), shards)
			max := s.MaxAlloc()
			off, err := s.AllocAffinity(max, 0)
			if err != nil {
				t.Errorf("arena %d, %d shards: Alloc(MaxAlloc=%d) failed: %v", size, s.Shards(), max, err)
				continue
			}
			s.Free(off)
			if s.Used() != 0 {
				t.Errorf("arena %d, %d shards: leaked %d bytes", size, s.Shards(), s.Used())
			}
		}
	}
}

func TestNegativeShardCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewShardedTLSF(-1 shards) must panic")
		}
	}()
	NewShardedTLSF(NewArena(1<<20), -1)
}

func TestShardedDoubleFreePanics(t *testing.T) {
	s := NewShardedTLSF(NewArena(8<<20), 2)
	off, err := s.AllocAffinity(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Free(off)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	s.Free(off)
}

// checkQuiesced verifies, with no allocation traffic running, that the
// allocator's byte counter equals what the shards' block chains hold and,
// when the caller has freed everything, that every shard has coalesced back
// into a single free block spanning it: no freed byte is held anywhere but
// in a shard's free lists.
func checkQuiesced(s *ShardedTLSF, allFreed bool) error {
	var chained int64
	for i, sh := range s.shards {
		used, err := sh.check()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		chained += used
	}
	if s.Used() != chained {
		return fmt.Errorf("Used() = %d, shard chains hold %d", s.Used(), chained)
	}
	if !allFreed {
		return nil
	}
	for i, sh := range s.shards {
		if !sh.isFree(sh.base) || sh.blockSize(sh.base) != sh.limit-sh.base {
			return fmt.Errorf("shard %d is not one free block after every free (first block: free=%v, %d of %d bytes)",
				i, sh.isFree(sh.base), sh.blockSize(sh.base), sh.limit-sh.base)
		}
	}
	return nil
}

// TestShardedRandomized is the single-goroutine property test: any
// interleaving of affinity allocs and frees leaves every shard consistent,
// keeps the gauges exact, and recovers all memory as one block per shard.
func TestShardedRandomized(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewShardedTLSF(NewArena(4<<20), 4)
		type alloc struct{ off, size int64 }
		var live []alloc
		for i := 0; i < 400; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(live))
				s.Free(live[j].off)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				sz := int64(1 + rng.Intn(16000))
				off, err := s.AllocAffinity(sz, rng.Intn(8))
				if err != nil {
					continue // exhausted; fine
				}
				live = append(live, alloc{off, sz})
			}
		}
		if err := s.CheckConsistency(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := checkQuiesced(s, false); err != nil {
			t.Logf("seed %d, blocks live: %v", seed, err)
			return false
		}
		for _, l := range live {
			s.Free(l.off)
		}
		if s.Used() != 0 {
			t.Logf("seed %d: leaked %d bytes", seed, s.Used())
			return false
		}
		if err := checkQuiesced(s, true); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return s.CheckConsistency() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedConcurrentStress is the randomized concurrency property test:
// goroutines alloc/free across shards (each biased to its own home, with a
// slice of cross-shard traffic) while a checker goroutine interleaves
// CheckConsistency on every shard and checks that Used stays within the
// arena. Run with -race.
func TestShardedConcurrentStress(t *testing.T) {
	const workers = 8
	s := NewShardedTLSF(NewArena(16<<20), 4)
	stop := make(chan struct{})
	checkErr := make(chan error, 1)
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := s.CheckConsistency()
			if u := s.Used(); err == nil && (u < 0 || u > s.total) {
				err = fmt.Errorf("Used = %d outside the %d-byte arena", u, s.total)
			}
			if err != nil {
				select {
				case checkErr <- err:
				default:
				}
				return
			}
		}
	}()

	sizes := []int64{80, 512, 4096, 4096, 4096, 64 << 10, 100_000}
	var wg sync.WaitGroup
	workerErr := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var live []int64
			for i := 0; i < 3000; i++ {
				if len(live) > 24 || (len(live) > 0 && rng.Intn(2) == 0) {
					j := rng.Intn(len(live))
					s.Free(live[j])
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				hint := w
				if rng.Intn(8) == 0 {
					hint = rng.Intn(workers) // cross-shard traffic
				}
				off, err := s.AllocAffinity(sizes[rng.Intn(len(sizes))], hint)
				if errors.Is(err, ErrOutOfMemory) {
					continue
				}
				if err != nil {
					workerErr <- err
					return
				}
				live = append(live, off)
			}
			for _, off := range live {
				s.Free(off)
			}
			workerErr <- nil
		}(w)
	}
	wg.Wait()
	close(stop)
	checker.Wait()
	close(workerErr)
	for err := range workerErr {
		if err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-checkErr:
		t.Fatalf("mid-stress consistency check: %v", err)
	default:
	}
	if s.Used() != 0 {
		t.Fatalf("leaked %d bytes after concurrent stress", s.Used())
	}
	if err := checkQuiesced(s, true); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkShardedTLSFAllocFree(b *testing.B) {
	s := NewShardedTLSF(NewArena(64<<20), 0)
	b.ReportAllocs()
	b.ResetTimer() // the 64 MiB arena is set-up, not the allocator
	for i := 0; i < b.N; i++ {
		off, err := s.AllocAffinity(4096, 0)
		if err != nil {
			b.Fatal(err)
		}
		s.Free(off)
	}
}
