package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pangea/internal/disk"
	"pangea/internal/memory"
)

// withShards gives a pool that has allocated nothing yet an allocator of a
// fixed shard count, whatever GOMAXPROCS is.
func withShards(bp *BufferPool, shards int) *BufferPool {
	bp.alloc = memory.NewShardedTLSF(bp.arena, shards)
	return bp
}

// shardedPool builds a pool with a fixed allocator shard count.
func shardedPool(t *testing.T, mem int64, shards int) *BufferPool {
	t.Helper()
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := NewPool(PoolConfig{
		Memory: mem, Array: arr,
		// Keep the everything-pinned failure path fast: those tests assert
		// on ErrNoEvictable, not on how long the daemon waits for it.
		AllocTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return withShards(bp, shards)
}

// TestPrefetchedFramesLandOnHomeShard: speculative loads carve their frames
// with the set's affinity, exactly like demand frames, so while
// the home shard has room every prefetched page lives in it — on 1, 2 and
// 4 shards, for a set homed on each shard in turn.
func TestPrefetchedFramesLandOnHomeShard(t *testing.T) {
	const (
		pageSize = 4 << 10
		n        = 8
	)
	for _, shards := range []int{1, 2, 4} {
		for home := 0; home < shards; home++ {
			t.Run(fmt.Sprintf("%dshards/home%d", shards, home), func(t *testing.T) {
				bp := shardedPool(t, 4<<20, shards)
				if got := bp.alloc.Shards(); got != shards {
					t.Fatalf("Shards = %d, want %d", got, shards)
				}
				// Set IDs are handed out in order and a set's ID is its
				// affinity hint, so its home shard is its ID modulo the
				// shard count: placeholders move "data" to home.
				for i := 0; i < home; i++ {
					if _, err := bp.CreateSet(SetSpec{Name: fmt.Sprintf("pad%d", i), PageSize: pageSize}); err != nil {
						t.Fatal(err)
					}
				}
				s := writeSpilled(t, bp, "data", n, pageSize, 0)
				if got := bp.alloc.HomeShard(int(s.id)); got != home {
					t.Fatalf("home shard = %d, want %d", got, home)
				}
				coolSet(t, bp, s) // its filler is dropped, so every shard has room again
				if issued := s.Prefetch(s.PageNums()); issued != n {
					t.Fatalf("Prefetch issued %d reads, want %d", issued, n)
				}
				waitFor(t, 5*time.Second, func() bool {
					return s.ResidentPages() == n && bp.Stats().LoadsInFlight.Load() == 0
				}, "prefetched frames to land")
				s.mu.Lock()
				defer s.mu.Unlock()
				for num, p := range s.resident {
					if !p.prefetched {
						t.Errorf("page %d is resident but not marked prefetched", num)
					}
					if got := bp.alloc.ShardOf(p.off); got != home {
						t.Errorf("prefetched page %d landed in shard %d, want home shard %d", num, got, home)
					}
				}
			})
		}
	}
}

// frameBytes sums the allocator blocks (header included) behind a set's
// resident pages.
func frameBytes(s *LocalitySet) int64 {
	const blockHeader = 16 // memory's per-block boundary tag
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	for _, p := range s.resident {
		sum += s.pool.alloc.UsableSize(p.off) + blockHeader
	}
	return sum
}

// TestShuffleMixLeavesWholePoolToSurvivor runs shuffle_agg's allocation mix
// — 512 KiB shuffle pages and 128 KiB hash pages competing in one small
// pool — through several pool-fulls of churn, drops the small-page set, and
// then lets the large-page set pin new pages until nothing is evictable.
// The allocator holds bytes for resident frames and nothing else
// throughout, and what the dropped set freed serves the other size at
// once: the survivor ends up pinning as many frames as an empty pool holds.
func TestShuffleMixLeavesWholePoolToSurvivor(t *testing.T) {
	const (
		large  = 512 << 10
		small  = 128 << 10
		shards = 2
	)
	bp := shardedPool(t, 8<<20, shards)
	big, err := bp.CreateSet(SetSpec{Name: "shuffle", PageSize: large})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := bp.CreateSet(SetSpec{Name: "hash", PageSize: small})
	if err != nil {
		t.Fatal(err)
	}
	checkUsed := func(when string, sets ...*LocalitySet) {
		t.Helper()
		waitEvictorIdle(t, bp)
		var frames int64
		for _, s := range sets {
			frames += frameBytes(s)
		}
		if used := bp.UsedBytes(); used != frames {
			t.Fatalf("%s: UsedBytes = %d, resident frames hold %d", when, used, frames)
		}
	}
	add := func(s *LocalitySet) {
		t.Helper()
		p, err := s.NewPage()
		if err != nil {
			t.Fatalf("NewPage(%s): %v", s.Name(), err)
		}
		stamp(p.Bytes(), int64(s.ID()), p.Num())
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	// 48 large + 192 small pages = 48 MiB through an 8 MiB pool.
	for i := 0; i < 48; i++ {
		add(big)
		for j := 0; j < 4; j++ {
			add(tiny)
		}
		if i%8 == 7 {
			checkUsed(fmt.Sprintf("churn round %d", i), big, tiny)
		}
	}
	if bp.Stats().Evictions.Load() == 0 {
		t.Fatal("the churn never evicted; the pool is too large for this test")
	}
	if err := bp.DropSet(tiny); err != nil {
		t.Fatal(err)
	}
	checkUsed("after dropping the small-page set", big)

	var pinned []*Page
	for {
		p, err := big.NewPage()
		if err != nil {
			if !errors.Is(err, ErrNoEvictable) {
				t.Fatalf("NewPage: %v", err)
			}
			break
		}
		pinned = append(pinned, p)
	}
	checkUsed("with the large-page set pinned to exhaustion", big)
	if got := big.ResidentPages(); got != len(pinned) {
		t.Errorf("%d resident pages but %d pinned: something evictable was left", got, len(pinned))
	}
	// An empty shard holds floor(shard / frame) frames; a frame pinned
	// mid-churn can strand a gap, so allow one frame of slack per shard.
	perShard := (bp.Capacity() / shards) / (large + 16)
	if want := int(perShard * shards); len(pinned) < want-shards {
		t.Errorf("survivor pinned %d large pages, want at least %d of the empty pool's %d", len(pinned), want-shards, want)
	}
	for _, p := range pinned {
		if err := big.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.DropSet(big); err != nil {
		t.Fatal(err)
	}
	if got := bp.UsedBytes(); got != 0 {
		t.Errorf("UsedBytes = %d after dropping both sets", got)
	}
}
