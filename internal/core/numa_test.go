package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pangea/internal/disk"
	"pangea/internal/numa"
)

// numaPool builds a pool over a synthetic topology of the given node count
// (8 CPUs, so every node of the 1/2/4-node shapes owns some) with a fixed
// shard count.
func numaPool(t *testing.T, mem int64, shards, nodes int) *BufferPool {
	t.Helper()
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := NewPool(PoolConfig{
		Memory: mem, Array: arr, AllocShards: shards, Topology: numa.NewFake(nodes, 8),
		// Keep the everything-pinned failure path fast: those tests assert
		// on ErrNoEvictable, not on how long the daemon waits for it.
		AllocTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestPoolConfigRejectsNegativeShards(t *testing.T) {
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	if _, err := NewPool(PoolConfig{Memory: 1 << 20, Array: arr, AllocShards: -1}); err == nil {
		t.Error("negative AllocShards must be rejected")
	}
}

// TestPoolNodeAffineHome: under a synthetic multi-node topology, every
// created set's home node is a real node, and with an explicit single-node
// topology all sets keep home node 0 (the seed behaviour).
func TestPoolNodeAffineHome(t *testing.T) {
	bp := numaPool(t, 8<<20, 4, 2)
	if bp.NUMANodes() != 2 {
		t.Fatalf("NUMANodes = %d, want 2", bp.NUMANodes())
	}
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		s, err := bp.CreateSet(SetSpec{Name: fmt.Sprintf("s%d", i), PageSize: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if n := s.HomeNode(); n < 0 || n >= 2 {
			t.Fatalf("set %d home node = %d", i, n)
		} else {
			seen[n] = true
		}
	}
	// The fake topology's default current-CPU walk visits both nodes, so
	// homes must not all collapse onto one node.
	if len(seen) != 2 {
		t.Errorf("8 sets homed on nodes %v, want both nodes used", seen)
	}

	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	single, err := NewPool(PoolConfig{Memory: 8 << 20, Array: arr, AllocShards: 4, Topology: numa.SingleNode()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := single.CreateSet(SetSpec{Name: "s", PageSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.HomeNode() != 0 {
		t.Errorf("single-node home node = %d, want 0", s.HomeNode())
	}
}

// TestPoolCrossNodeDrain: one set must be able to pin nearly the whole pool
// even when its home node's shards cover only half of it — the allocator
// crosses the interconnect (counting steals) instead of reporting
// ErrNoEvictable while remote shards hold free memory.
func TestPoolCrossNodeDrain(t *testing.T) {
	const pageSize = 64 << 10
	bp := numaPool(t, 4<<20, 4, 2)
	s, err := bp.CreateSet(SetSpec{Name: "hog", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	var pages []*Page
	for {
		p, err := s.NewPage()
		if err != nil {
			if !errors.Is(err, ErrNoEvictable) {
				t.Fatalf("NewPage: %v", err)
			}
			break
		}
		pages = append(pages, p) // keep pinned: eviction can never help
	}
	// 4 MiB pool, 64 KiB pages: well past the two home-node shards' ~32.
	if len(pages) < 48 {
		t.Fatalf("only %d pinned pages before OOM; cross-node drain failed", len(pages))
	}
	if bp.Stats().CrossNodeSteals.Load() == 0 {
		t.Error("CrossNodeSteals = 0 after overflowing the home node")
	}
	view := bp.snapshot()
	if len(view.NodeUsed) != 2 {
		t.Fatalf("PolicyView.NodeUsed len = %d, want 2", len(view.NodeUsed))
	}
	if view.NodeUsed[0] == 0 || view.NodeUsed[1] == 0 {
		t.Errorf("NodeUsed = %v, want both nodes carrying pages", view.NodeUsed)
	}
	if view.CrossNodeSteals == 0 {
		t.Error("PolicyView.CrossNodeSteals = 0 after cross-node overflow")
	}
	var sum int64
	for _, u := range view.NodeUsed {
		sum += u
	}
	if sum != bp.UsedBytes() {
		t.Errorf("NodeUsed sums to %d, UsedBytes = %d", sum, bp.UsedBytes())
	}
	for _, p := range pages {
		if err := s.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
	if got := bp.UsedBytes(); got != 0 {
		t.Errorf("UsedBytes = %d after drop", got)
	}
}

// TestPoolNUMAStress is the -race stress for the node-affine path:
// concurrent CreateSet/alloc/free across a fake 2-node topology under real
// memory pressure, with interleaved per-shard consistency checks, then the
// residency-gauge and per-node accounting invariants at quiescence.
func TestPoolNUMAStress(t *testing.T) {
	const (
		pageSize = 4 << 10
		workers  = 8
		iters    = 300
	)
	bp := numaPool(t, 8<<20, 4, 2)

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
			rng := rand.New(rand.NewSource(int64(w)))
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
				if err := s.Unpin(p, rng.Intn(2) == 0); err != nil {
					fail(err)
					return
				}
				// Recycle the set periodically: fresh CreateSet calls keep
				// re-running the node-affine home placement under load.
				if s.NumPages() >= 48 {
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
			if used := bp.NodeUsedBytes(); len(used) != 2 {
				fail(fmt.Errorf("NodeUsedBytes len = %d mid-stress", len(used)))
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
	var perNode int64
	for _, u := range bp.NodeUsedBytes() {
		perNode += u
	}
	if perNode != 0 {
		t.Errorf("NodeUsedBytes sums to %d at quiescence, want 0", perNode)
	}
	if err := bp.alloc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolSingleShardSeedBehaviourUnderFakeNUMA: AllocShards=1 must pin the
// entire topology onto shard 0 — home node 0 for every set, zero cross-node
// steals — no matter how many synthetic nodes the topology reports. The
// pool-level guarantee behind the allocator-level seed-equivalence test.
func TestPoolSingleShardSeedBehaviourUnderFakeNUMA(t *testing.T) {
	bp := numaPool(t, 4<<20, 1, 4)
	if bp.AllocatorShards() != 1 {
		t.Fatalf("AllocatorShards = %d, want 1", bp.AllocatorShards())
	}
	for i := 0; i < 6; i++ {
		s, err := bp.CreateSet(SetSpec{Name: fmt.Sprintf("s%d", i), PageSize: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if s.HomeNode() != 0 {
			t.Errorf("set %d home node = %d with one shard, want 0", i, s.HomeNode())
		}
		for j := 0; j < 16; j++ {
			p, err := s.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Unpin(p, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := bp.Stats().CrossNodeSteals.Load(); got != 0 {
		t.Errorf("CrossNodeSteals = %d with one shard, want 0", got)
	}
}

// TestPrefetchedFramesLandOnHomeNode: speculative loads carve their frames
// with the set's home-shard affinity, exactly like demand frames, so a
// prefetched page is memory local to the node of the worker that created
// the set — on every topology shape, from every node of it.
func TestPrefetchedFramesLandOnHomeNode(t *testing.T) {
	const (
		pageSize = 4 << 10
		shards   = 4
		n        = 8
	)
	for _, nodes := range []int{1, 2, 4} {
		for creator := 0; creator < nodes; creator++ {
			t.Run(fmt.Sprintf("%dnodes/creator%d", nodes, creator), func(t *testing.T) {
				bp := numaPool(t, 4<<20, shards, nodes)
				topo := bp.Topology().(*numa.FakeTopology)
				cpu := creator * topo.NumCPUs() / nodes // first CPU of the creator's node
				topo.SetCurrentCPU(func() int { return cpu })
				s := writeSpilled(t, bp, "data", n, pageSize, 0)
				if s.HomeNode() != creator {
					t.Fatalf("home node = %d, want the creating worker's node %d", s.HomeNode(), creator)
				}
				coolSet(t, bp, s) // its filler overflows every node; count steals from here
				before := bp.Stats().CrossNodeSteals.Load()
				if issued := s.Prefetch(s.PageNums()); issued != n {
					t.Fatalf("Prefetch issued %d reads, want %d", issued, n)
				}
				waitFor(t, 5*time.Second, func() bool {
					return s.ResidentPages() == n && bp.Stats().LoadsInFlight.Load() == 0
				}, "prefetched frames to land")
				s.mu.Lock()
				for num, p := range s.resident {
					if !p.prefetched {
						t.Errorf("page %d is resident but not marked prefetched", num)
					}
					if got := bp.alloc.NodeOfShard(bp.alloc.ShardOf(p.off)); got != creator {
						t.Errorf("prefetched page %d landed on node %d, want home node %d", num, got, creator)
					}
				}
				s.mu.Unlock()
				if got := bp.Stats().CrossNodeSteals.Load() - before; got != 0 {
					t.Errorf("%d prefetches crossed nodes with the home node empty", got)
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
	bp := numaPool(t, 8<<20, shards, 1)
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
