package memory

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pangea/internal/numa"
)

// newNUMAAlloc builds a sharded allocator over a fresh heap arena and a
// fake topology of the given shape, returning both.
func newNUMAAlloc(t *testing.T, arenaBytes int64, shards, nodes int) (*ShardedTLSF, *numa.FakeTopology) {
	t.Helper()
	topo := numa.NewFake(nodes, maxOf(nodes, 8))
	s := NewShardedTLSFNUMA(NewArena(arenaBytes), shards, topo, nil)
	if s.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d (arena %d bytes)", s.Shards(), shards, arenaBytes)
	}
	return s, topo
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestShardNodePartition: shards are partitioned across nodes in contiguous
// runs, every shard's arena region is Bind-ed to its node in shard order,
// and the per-node shard lists cover exactly the shard set — for square,
// lopsided, single-node, and more-nodes-than-shards shapes.
func TestShardNodePartition(t *testing.T) {
	cases := []struct {
		shards, nodes int
		wantNode      []int // shard -> node
	}{
		{4, 1, []int{0, 0, 0, 0}},
		{4, 2, []int{0, 0, 1, 1}},
		{8, 4, []int{0, 0, 1, 1, 2, 2, 3, 3}},
		{8, 3, []int{0, 0, 0, 1, 1, 1, 2, 2}},
		{2, 4, []int{0, 2}}, // nodes 1 and 3 own no shards
		{1, 4, []int{0}},
	}
	for _, c := range cases {
		s, topo := newNUMAAlloc(t, int64(c.shards)<<20, c.shards, c.nodes)
		if s.NumNodes() != c.nodes {
			t.Errorf("%d shards/%d nodes: NumNodes = %d", c.shards, c.nodes, s.NumNodes())
		}
		got := make([]int, c.shards)
		for i := range got {
			got[i] = s.NodeOfShard(i)
		}
		if !reflect.DeepEqual(got, c.wantNode) {
			t.Errorf("%d shards/%d nodes: shard→node = %v, want %v", c.shards, c.nodes, got, c.wantNode)
		}
		// One Bind per shard, in shard order, covering the usable arena.
		binds := topo.Binds()
		if len(binds) != c.shards {
			t.Fatalf("%d shards/%d nodes: %d Bind calls, want one per shard", c.shards, c.nodes, len(binds))
		}
		var bound int64
		for i, b := range binds {
			if b.Node != c.wantNode[i] {
				t.Errorf("%d shards/%d nodes: shard %d bound to node %d, want %d", c.shards, c.nodes, i, b.Node, c.wantNode[i])
			}
			bound += int64(b.Bytes)
		}
		if bound > int64(c.shards)<<20 || bound < int64(c.shards)<<20-tlsfAlign {
			t.Errorf("%d shards/%d nodes: bound %d bytes of a %d arena", c.shards, c.nodes, bound, int64(c.shards)<<20)
		}
		// The per-node lists partition the shard set.
		seen := map[int]bool{}
		for node := 0; node < c.nodes; node++ {
			for _, idx := range s.NodeShards(node) {
				if s.NodeOfShard(idx) != node || seen[idx] {
					t.Errorf("%d shards/%d nodes: node %d lists shard %d (node %d, dup %v)", c.shards, c.nodes, node, idx, s.NodeOfShard(idx), seen[idx])
				}
				seen[idx] = true
			}
		}
		if len(seen) != c.shards {
			t.Errorf("%d shards/%d nodes: node lists cover %d shards, want %d", c.shards, c.nodes, len(seen), c.shards)
		}
	}
}

// TestHomeShardOn: the home shard for a (node, hint) pair is node-local
// whenever the node owns shards, covers all of the node's shards across
// hints, and falls back to the global mapping for shardless nodes.
func TestHomeShardOn(t *testing.T) {
	for _, c := range []struct{ shards, nodes int }{{4, 2}, {8, 3}, {2, 4}, {4, 1}} {
		s, _ := newNUMAAlloc(t, int64(c.shards)<<20, c.shards, c.nodes)
		for node := 0; node < c.nodes; node++ {
			local := s.NodeShards(node)
			covered := map[int]bool{}
			for hint := 0; hint < 32; hint++ {
				h := s.HomeShardOn(node, hint)
				if h < 0 || h >= c.shards {
					t.Fatalf("%d/%d: HomeShardOn(%d,%d) = %d out of range", c.shards, c.nodes, node, hint, h)
				}
				if len(local) > 0 && s.NodeOfShard(h) != node {
					t.Errorf("%d/%d: HomeShardOn(%d,%d) = shard %d on node %d, want node-local", c.shards, c.nodes, node, hint, h, s.NodeOfShard(h))
				}
				covered[h] = true
			}
			if len(local) > 0 && len(covered) != len(local) {
				t.Errorf("%d/%d: node %d hints covered %d of %d local shards", c.shards, c.nodes, node, len(covered), len(local))
			}
		}
		// Out-of-range nodes use the global fallback rather than panicking.
		if h := s.HomeShardOn(-1, 3); h != s.HomeShard(3) {
			t.Errorf("HomeShardOn(-1) = %d, want global fallback %d", h, s.HomeShard(3))
		}
	}
}

// TestTwoTierStealOrder exhausts shards one allocation at a time (each
// sized to fill a whole shard) and checks the landing order: home shard,
// then the rest of the home node, then the remote nodes — with the
// cross-node counter ticking only on the interconnect crossings.
func TestTwoTierStealOrder(t *testing.T) {
	s, _ := newNUMAAlloc(t, 4<<20, 4, 2) // node 0: shards {0,1}, node 1: {2,3}
	big := s.MaxAlloc()                  // one block fills one shard
	wantShard := []int{0, 1, 2, 3}
	wantCross := []int64{0, 0, 1, 2}
	var offs []int64
	for i, want := range wantShard {
		off, err := s.AllocAffinity(big, 0) // all traffic homed on shard 0
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		offs = append(offs, off)
		if got := s.ShardOf(off); got != want {
			t.Errorf("alloc %d landed in shard %d, want %d (two-tier order)", i, got, want)
		}
		if got := s.CrossNodeSteals(); got != wantCross[i] {
			t.Errorf("after alloc %d: CrossNodeSteals = %d, want %d", i, got, wantCross[i])
		}
	}
	if _, err := s.AllocAffinity(big, 0); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("5th shard-filling alloc: err = %v, want ErrOutOfMemory", err)
	}
	for _, off := range offs {
		s.Free(off)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossNodeSweepBeforeOOM: ErrOutOfMemory is reported only after every
// shard of every node has been tried. A hog homed on node 0 reaches each
// remote shard and counts one crossing per block that landed there; with
// every shard full, freeing one remote region must let a home-node-routed
// allocation succeed (landing on the remote node).
func TestCrossNodeSweepBeforeOOM(t *testing.T) {
	s, _ := newNUMAAlloc(t, 4<<20, 4, 2)
	// Fill the whole arena with 64 KiB blocks homed on shard 0: the hot
	// hint must be able to consume every node's shards.
	var offs []int64
	perShard := make([]int64, s.Shards())
	for {
		off, err := s.AllocAffinity(64<<10, 0)
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
		t.Fatalf("only %d×64KiB allocated from a 4 MiB arena; cross-node stealing failed", len(offs))
	}
	for i, n := range perShard {
		if n == 0 {
			t.Errorf("shard %d (node %d) holds no block at OOM; the sweep skipped it", i, s.NodeOfShard(i))
		}
	}
	if got, want := s.CrossNodeSteals(), perShard[2]+perShard[3]; got != want {
		t.Errorf("CrossNodeSteals = %d, want %d (one per block on node 1)", got, want)
	}
	// Free two adjacent blocks on the remote node (they coalesce into one
	// region a 64 KiB request is guaranteed to find despite TLSF's class
	// round-up) and retry from the node-0 home: the allocation must succeed
	// by crossing the interconnect rather than reporting OOM while remote
	// memory is free.
	remote := -1
	for i, off := range offs {
		if s.NodeOfShard(s.ShardOf(off)) == 1 && i+1 < len(offs) &&
			s.ShardOf(offs[i+1]) == s.ShardOf(off) {
			remote = i
			break
		}
	}
	if remote < 0 {
		t.Fatal("no adjacent allocations landed on node 1; steal never crossed nodes")
	}
	s.Free(offs[remote])
	s.Free(offs[remote+1])
	offs = append(offs[:remote], offs[remote+2:]...)
	off, err := s.AllocAffinity(64<<10, 0)
	if err != nil {
		t.Fatalf("alloc after remote free: %v (the remote node must be tried before OOM)", err)
	}
	if got := s.NodeOfShard(s.ShardOf(off)); got != 1 {
		t.Errorf("refill landed on node %d, want the freed remote node 1", got)
	}
	offs = append(offs, off)
	for _, o := range offs {
		s.Free(o)
	}
	if s.Used() != 0 {
		t.Fatalf("leaked %d bytes", s.Used())
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSingleShardReproducesSeedBehaviour: AllocShards=1 with any topology
// must behave exactly like the seed's single TLSF — same offsets for the
// same operation sequence, home shard 0 for every (node, hint) pair, and
// no cross-node steals ever.
func TestSingleShardReproducesSeedBehaviour(t *testing.T) {
	const arenaBytes = 2 << 20
	seed := NewShardedTLSFNUMA(NewArena(arenaBytes), 1, numa.SingleNode(), nil)
	four := NewShardedTLSFNUMA(NewArena(arenaBytes), 1, numa.NewFake(4, 8), nil)
	if seed.Shards() != 1 || four.Shards() != 1 {
		t.Fatalf("Shards = %d/%d, want 1/1", seed.Shards(), four.Shards())
	}
	for node := 0; node < 4; node++ {
		for hint := 0; hint < 8; hint++ {
			if h := four.HomeShardOn(node, hint); h != 0 {
				t.Fatalf("HomeShardOn(%d,%d) = %d with one shard", node, hint, h)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	type op struct {
		free bool
		idx  int
		size int64
		hint int
	}
	var ops []op
	for i := 0; i < 300; i++ {
		if i > 0 && rng.Intn(3) == 0 {
			ops = append(ops, op{free: true, idx: rng.Intn(i)})
		} else {
			ops = append(ops, op{size: int64(1 + rng.Intn(32<<10)), hint: rng.Intn(16)})
		}
	}
	replay := func(s *ShardedTLSF) []int64 {
		var got []int64
		live := map[int]int64{}
		order := []int{}
		for i, o := range ops {
			if o.free {
				// Free the o.idx-th still-live allocation, if any.
				if len(order) == 0 {
					continue
				}
				k := order[o.idx%len(order)]
				s.Free(live[k])
				delete(live, k)
				for j, v := range order {
					if v == k {
						order = append(order[:j], order[j+1:]...)
						break
					}
				}
				continue
			}
			off, err := s.AllocAffinity(o.size, o.hint)
			if err != nil {
				got = append(got, -1)
				continue
			}
			got = append(got, off)
			live[i] = off
			order = append(order, i)
		}
		return got
	}
	a, b := replay(seed), replay(four)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("single-shard allocation sequence diverges between single-node and fake 4-node topologies")
	}
	if seed.CrossNodeSteals() != 0 || four.CrossNodeSteals() != 0 {
		t.Errorf("cross-node steals = %d/%d with one shard, want 0", seed.CrossNodeSteals(), four.CrossNodeSteals())
	}
}

func TestNegativeShardCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewShardedTLSFNUMA(-1 shards) must panic")
		}
	}()
	NewShardedTLSFNUMA(NewArena(1<<20), -1, numa.SingleNode(), nil)
}

// TestNodeUsedGauges: per-node usage tracks where allocations actually
// landed and sums to the aggregate at quiescence.
func TestNodeUsedGauges(t *testing.T) {
	s, _ := newNUMAAlloc(t, 4<<20, 4, 2)
	n1, err := s.AllocAffinity(100<<10, s.HomeShardOn(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	used := s.NodeUsed()
	if len(used) != 2 {
		t.Fatalf("NodeUsed len = %d, want 2", len(used))
	}
	if used[0] != 0 || used[1] <= 0 {
		t.Errorf("NodeUsed = %v after a node-1 allocation, want [0, >0]", used)
	}
	if sum := used[0] + used[1]; sum != s.Used() {
		t.Errorf("NodeUsed sum %d != Used %d", sum, s.Used())
	}
	s.Free(n1)
	used = s.NodeUsed()
	if used[0] != 0 || used[1] != 0 {
		t.Errorf("NodeUsed = %v after freeing everything", used)
	}
}

// TestShardedNUMAConcurrentStress: node-affine allocation traffic on a fake
// 2-node topology, with a slice of deliberately remote traffic, while a
// checker interleaves per-shard consistency checks. Run with -race.
func TestShardedNUMAConcurrentStress(t *testing.T) {
	const workers = 8
	topo := numa.NewFake(2, workers)
	s := NewShardedTLSFNUMA(NewArena(16<<20), 4, topo, nil)
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
			if err := s.CheckConsistency(); err != nil {
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
			node := topo.NodeOfCPU(w)
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
				home := s.HomeShardOn(node, w)
				if rng.Intn(8) == 0 {
					// Deliberately remote: home on the other node.
					home = s.HomeShardOn(1-node, w)
				}
				off, err := s.AllocAffinity(sizes[rng.Intn(len(sizes))], home)
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
	var perNode int64
	for _, u := range s.NodeUsed() {
		perNode += u
	}
	if perNode != 0 {
		t.Fatalf("NodeUsed sums to %d at quiescence, want 0", perNode)
	}
	if err := checkQuiesced(s, true); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestMmapArena: the mmap-backed variant is readable/writable end to end
// and serves a TLSF allocator exactly like a heap arena (falling back to
// heap where mmap is unavailable — the test passes either way).
func TestMmapArena(t *testing.T) {
	a := NewMmapArena(2 << 20)
	if a.Size() != 2<<20 {
		t.Fatalf("Size = %d", a.Size())
	}
	buf := a.Slice(0, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := range buf {
		if buf[i] != byte(i) {
			t.Fatalf("mmap arena byte %d corrupt", i)
		}
	}
	s := NewShardedTLSFNUMA(a, 1, numa.SingleNode(), nil)
	off, err := s.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	copy(a.Slice(off, 64<<10), []byte("pangea"))
	s.Free(off)
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
