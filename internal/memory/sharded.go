package memory

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"pangea/internal/numa"
)

const (
	// minShardBytes keeps shards large enough to hold real pages; arenas
	// smaller than 2*minShardBytes stay unsharded, so tiny test pools keep
	// the seed's single-TLSF behaviour.
	minShardBytes = 1 << 20
	// maxShards caps the shard count regardless of GOMAXPROCS.
	maxShards = 64
)

// tlsfShard is one contiguous arena region with its own TLSF instance.
type tlsfShard struct {
	base int64
	size int64
	node int // NUMA node this shard's arena region is bound to
	tlsf *TLSF

	// used mirrors the shard's slice of the allocator-wide used aggregate,
	// so per-node residency gauges never sweep the shard locks.
	used atomic.Int64
}

// ShardedTLSF splits one arena into N contiguous TLSF shards (N ≈
// GOMAXPROCS, power of two), each with its own mutex, bitmaps and free
// lists. The shards are partitioned across the topology's NUMA nodes in
// contiguous runs (shard i belongs to node i·M/N) and each shard's arena
// region is bound to its node, so a page allocated from a node-local shard
// is node-local memory. Allocations carry a home-shard hint (the pool
// routes by locality set, choosing a home on the creating worker's node);
// on exhaustion the allocator steals in two tiers — every same-node shard
// first, only then the remote nodes' shards in ring order — before
// reporting ErrOutOfMemory. A single hot set can therefore still consume
// the whole arena; it just pays the interconnect only once its own node is
// genuinely full. Used and FreeBytes aggregate across shards and are exact:
// a freed block coalesces in its shard at once, so every free byte can
// serve any size that fits between its neighbours.
type ShardedTLSF struct {
	arena      *Arena
	topo       numa.Topology
	shards     []*tlsfShard
	nodeShards [][]int // node -> its shard indexes (may be empty)
	stealOrder [][]int // per home shard: every other shard, same node first
	sameNode   []int   // per home shard: how many stealOrder entries are local
	shardSize  int64
	total      int64         // usable (16-aligned) arena bytes across shards
	used       atomic.Int64  // aggregate bytes handed out, headers included
	rr         atomic.Uint32 // round-robin homes for hint-less Alloc

	crossSteals *atomic.Int64 // cross-node allocations; pool-owned when injected
}

// shardCount resolves the shard count for a 16-aligned arena size: <= 0
// selects ~GOMAXPROCS; any value is rounded up to a power of two, capped
// at maxShards, and reduced until every shard holds at least minShardBytes
// (so small arenas degrade to a single shard). The effective count is
// surfaced by ShardedTLSF.Shards.
func shardCount(total int64, nshards int) int {
	n := nshards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxShards {
		n = maxShards
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	for n > 1 && total/int64(n) < minShardBytes {
		n >>= 1
	}
	return n
}

// DefaultShardCount reports how many shards NewShardedTLSF would create
// for an arena of the given size under the automatic (GOMAXPROCS) policy,
// without building anything.
func DefaultShardCount(arenaBytes int64) int {
	return shardCount(arenaBytes&^(tlsfAlign-1), 0)
}

// NewShardedTLSF builds a sharded allocator over the whole arena under the
// machine's discovered topology; see shardCount for how nshards is resolved.
func NewShardedTLSF(a *Arena, nshards int) *ShardedTLSF {
	return NewShardedTLSFNUMA(a, nshards, nil, nil)
}

// NewShardedTLSFNUMA builds a sharded allocator with an explicit topology
// and an optional external cross-node steal counter (the pool injects its
// PoolStats gauge; nil keeps a private one). A nil topo selects
// numa.Discover(). nshards < 0 panics — silently "rounding" a negative
// shard count hid configuration bugs; the pool validates before calling.
func NewShardedTLSFNUMA(a *Arena, nshards int, topo numa.Topology, crossSteals *atomic.Int64) *ShardedTLSF {
	if nshards < 0 {
		panic(fmt.Sprintf("memory: negative shard count %d", nshards))
	}
	if topo == nil {
		topo = numa.Discover()
	}
	if crossSteals == nil {
		crossSteals = new(atomic.Int64)
	}
	total := a.Size() &^ (tlsfAlign - 1)
	n := shardCount(total, nshards)
	s := &ShardedTLSF{
		arena:       a,
		topo:        topo,
		shardSize:   (total / int64(n)) &^ (tlsfAlign - 1),
		total:       total,
		crossSteals: crossSteals,
	}
	nodes := topo.NumNodes()
	s.nodeShards = make([][]int, nodes)
	// Bind shard regions only where binding means something: a synthetic
	// topology records the call, a real machine mbinds — but only
	// mmap-backed regions, never the Go heap, whose placement belongs to
	// the runtime (on real hardware the arena is heap-backed exactly when
	// there is a single node, where Bind is a no-op anyway).
	bind := !topo.Physical() || a.Mapped()
	for i := 0; i < n; i++ {
		base := int64(i) * s.shardSize
		size := s.shardSize
		if i == n-1 {
			size = total - base
		}
		node := i * nodes / n
		s.nodeShards[node] = append(s.nodeShards[node], i)
		s.shards = append(s.shards, &tlsfShard{
			base: base,
			size: size,
			node: node,
			tlsf: NewTLSF(a.View(base, size)),
		})
		if bind {
			_ = topo.Bind(a.Slice(base, size), node) // best-effort placement
		}
	}
	s.buildStealOrders()
	return s
}

// buildStealOrders precomputes, for every home shard h, the order the
// other shards are tried on exhaustion: the rest of h's node in ring order
// (cheap, same-socket memory), then the other nodes' shards — nodes in
// ring order from node(h)+1, each node's shards in ring order — so an
// allocation exhausts its own node before paying the interconnect, yet a
// full sweep still visits every shard before ErrOutOfMemory.
func (s *ShardedTLSF) buildStealOrders() {
	n := len(s.shards)
	nodes := len(s.nodeShards)
	s.stealOrder = make([][]int, n)
	s.sameNode = make([]int, n)
	for h := 0; h < n; h++ {
		home := s.shards[h].node
		order := make([]int, 0, n-1)
		local := s.nodeShards[home]
		pos := 0
		for i, idx := range local {
			if idx == h {
				pos = i
				break
			}
		}
		for d := 1; d < len(local); d++ {
			order = append(order, local[(pos+d)%len(local)])
		}
		s.sameNode[h] = len(order)
		for dn := 1; dn < nodes; dn++ {
			order = append(order, s.nodeShards[(home+dn)%nodes]...)
		}
		s.stealOrder[h] = order
	}
}

// Shards reports the effective shard count the arena was split into (after
// power-of-two rounding and the min-shard-size reduction).
func (s *ShardedTLSF) Shards() int { return len(s.shards) }

// NumNodes reports how many NUMA nodes the shards are partitioned over.
func (s *ShardedTLSF) NumNodes() int { return len(s.nodeShards) }

// NodeOfShard reports the node shard i's arena region belongs to.
func (s *ShardedTLSF) NodeOfShard(i int) int { return s.shards[i].node }

// NodeShards returns the shard indexes local to a node (possibly empty:
// with more nodes than shards, some nodes own none and their traffic is
// inherently remote).
func (s *ShardedTLSF) NodeShards(node int) []int {
	return append([]int(nil), s.nodeShards[node]...)
}

// CrossNodeSteals reports how many allocations were served by a shard on a
// different node than their home shard's.
func (s *ShardedTLSF) CrossNodeSteals() int64 { return s.crossSteals.Load() }

// HomeShard maps an affinity hint (e.g. a locality-set ID) to its home
// shard index over the whole arena, ignoring the topology.
func (s *ShardedTLSF) HomeShard(hint int) int {
	return int(uint(hint) & uint(len(s.shards)-1))
}

// HomeShardOn maps an affinity hint to a home shard among the given node's
// local shards, so a locality set created by a worker on that node keeps
// its page memory node-local. A node with no local shards (more nodes than
// shards) falls back to the global mapping — its traffic is remote from
// every shard anyway, so spreading beats pinning.
func (s *ShardedTLSF) HomeShardOn(node, hint int) int {
	if node < 0 || node >= len(s.nodeShards) || len(s.nodeShards[node]) == 0 {
		return s.HomeShard(hint)
	}
	local := s.nodeShards[node]
	return local[int(uint(hint)%uint(len(local)))]
}

// ShardOf reports which shard the allocated region at userOff lives in.
func (s *ShardedTLSF) ShardOf(userOff int64) int {
	i := (userOff - headerSize) / s.shardSize
	if i >= int64(len(s.shards)) {
		i = int64(len(s.shards)) - 1
	}
	return int(i)
}

func (s *ShardedTLSF) shardFor(userOff int64) *tlsfShard {
	return s.shards[s.ShardOf(userOff)]
}

// Alloc reserves n bytes from a round-robin home shard. Pool code uses
// AllocAffinity so a locality set's pages stay on its home shard.
func (s *ShardedTLSF) Alloc(n int64) (int64, error) {
	return s.AllocAffinity(n, int(s.rr.Add(1)))
}

// AllocAffinity reserves n bytes, preferring the home shard that the hint
// maps to, then two-tier work-stealing — the home node's other shards
// before any remote node's — so every shard has been tried before
// ErrOutOfMemory.
func (s *ShardedTLSF) AllocAffinity(n int64, hint int) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("memory: invalid allocation size %d", n)
	}
	h := s.HomeShard(hint)
	home := s.shards[h]
	if off, err := home.tlsf.Alloc(n); err == nil {
		return s.granted(home, home.base+off), nil
	}
	for i, si := range s.stealOrder[h] {
		sh := s.shards[si]
		if off, err := sh.tlsf.Alloc(n); err == nil {
			if i >= s.sameNode[h] { // past the same-node prefix: crossed the interconnect
				s.crossSteals.Add(1)
			}
			return s.granted(sh, sh.base+off), nil
		}
	}
	return 0, ErrOutOfMemory
}

// granted records a TLSF grant in the aggregate and per-shard used counters
// (the granted block can be slightly larger than requested when a remainder
// was too small to split) and returns the offset unchanged.
func (s *ShardedTLSF) granted(sh *tlsfShard, userOff int64) int64 {
	size := int64(sh.tlsf.header(userOff-sh.base) &^ 1)
	s.used.Add(size)
	sh.used.Add(size)
	return userOff
}

// Free releases a region previously returned by Alloc/AllocAffinity back to
// its shard's TLSF, where it coalesces with its free neighbours at once.
func (s *ShardedTLSF) Free(userOff int64) {
	sh := s.shardFor(userOff)
	local := userOff - sh.base
	hdr := sh.tlsf.header(local)
	if hdr&1 == 1 {
		panic(fmt.Sprintf("memory: double free at offset %d", userOff))
	}
	size := int64(hdr &^ 1)
	s.used.Add(-size)
	sh.used.Add(-size)
	sh.tlsf.Free(local)
}

// UsableSize reports the payload capacity of an allocated region.
func (s *ShardedTLSF) UsableSize(userOff int64) int64 {
	sh := s.shardFor(userOff)
	return sh.tlsf.UsableSize(userOff - sh.base)
}

// MaxAlloc returns the largest single allocation the allocator can
// satisfy when empty: one block spanning the largest shard, rounded down
// to what mappingSearch's class round-up can actually find. CreateSet
// validates page sizes against this, since a page cannot span shards.
func (s *ShardedTLSF) MaxAlloc() int64 {
	// The last shard absorbs the division remainder, so it is the largest.
	sh := s.shards[len(s.shards)-1]
	return classFloor(sh.size&^(tlsfAlign-1)) - headerSize
}

// Used returns the bytes currently handed out to callers (including block
// headers). Maintained as one atomic aggregate so the hot allocation path
// never sweeps every shard's locks for its peak-usage and watermark checks.
func (s *ShardedTLSF) Used() int64 { return s.used.Load() }

// FreeBytes returns the bytes not currently allocated, aggregated across
// shards; the eviction daemon's watermarks compare against this total.
func (s *ShardedTLSF) FreeBytes() int64 { return s.total - s.used.Load() }

// NodeUsed returns the bytes currently handed out per NUMA node, summed
// over each node's shards. Nodes with no local shards report zero.
func (s *ShardedTLSF) NodeUsed() []int64 {
	out := make([]int64, len(s.nodeShards))
	for _, sh := range s.shards {
		out[sh.node] += sh.used.Load()
	}
	return out
}

// CheckShard verifies shard i's TLSF physical chain invariants. Safe to call
// concurrently with allocation traffic.
func (s *ShardedTLSF) CheckShard(i int) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("memory: no shard %d", i)
	}
	return s.shards[i].tlsf.CheckConsistency()
}

// CheckConsistency checks every shard plus the per-shard used gauges (a
// negative gauge means a double release). The per-shard gauges and the
// aggregate are separate atomics updated in sequence, so their *sum* is
// compared only by quiesced tests, never here — this runs concurrently
// with traffic in the stress tests.
func (s *ShardedTLSF) CheckConsistency() error {
	for i := range s.shards {
		if err := s.CheckShard(i); err != nil {
			return err
		}
	}
	for i, sh := range s.shards {
		if u := sh.used.Load(); u < 0 {
			return fmt.Errorf("memory: shard %d (node %d) has negative used %d", i, sh.node, u)
		}
	}
	return nil
}
