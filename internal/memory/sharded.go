package memory

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
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
	tlsf *TLSF
}

// ShardedTLSF splits one arena into N contiguous TLSF shards (N ≈
// GOMAXPROCS, power of two), each with its own mutex, bitmaps and free
// lists. Allocations carry a home-shard hint (the pool routes by locality
// set); on exhaustion the allocator steals from the other shards in ring
// order, home+1 first, before reporting ErrOutOfMemory. A single hot set can
// therefore still consume the whole arena. Used and FreeBytes aggregate
// across shards and are exact: a freed block coalesces in its shard at once,
// so every free byte can serve any size that fits between its neighbours.
type ShardedTLSF struct {
	shards    []*tlsfShard
	shardSize int64
	total     int64 // usable (16-aligned) arena bytes across shards
	// The counters below are written by Alloc and Free on every core; the
	// pad keeps them off the cache line of the read-only fields above, which
	// every call reads.
	_    [64]byte
	used atomic.Int64  // aggregate bytes handed out, headers included
	rr   atomic.Uint32 // round-robin homes for hint-less Alloc
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

// NewShardedTLSF builds a sharded allocator over the whole arena; see
// shardCount for how nshards is resolved. nshards < 0 panics — silently
// "rounding" a negative shard count hid configuration bugs; the pool
// validates before calling.
func NewShardedTLSF(a *Arena, nshards int) *ShardedTLSF {
	if nshards < 0 {
		panic(fmt.Sprintf("memory: negative shard count %d", nshards))
	}
	total := a.Size() &^ (tlsfAlign - 1)
	n := shardCount(total, nshards)
	s := &ShardedTLSF{
		shardSize: (total / int64(n)) &^ (tlsfAlign - 1),
		total:     total,
	}
	for i := 0; i < n; i++ {
		base := int64(i) * s.shardSize
		size := s.shardSize
		if i == n-1 {
			size = total - base
		}
		s.shards = append(s.shards, &tlsfShard{
			base: base,
			size: size,
			tlsf: NewTLSF(a.View(base, size)),
		})
	}
	return s
}

// Shards reports the effective shard count the arena was split into (after
// power-of-two rounding and the min-shard-size reduction).
func (s *ShardedTLSF) Shards() int { return len(s.shards) }

// HomeShard maps an affinity hint (e.g. a locality-set ID) to its home
// shard index.
func (s *ShardedTLSF) HomeShard(hint int) int {
	return int(uint(hint) & uint(len(s.shards)-1))
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
// maps to, then stealing from the other shards in ring order, so every shard
// has been tried before ErrOutOfMemory.
func (s *ShardedTLSF) AllocAffinity(n int64, hint int) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("memory: invalid allocation size %d", n)
	}
	h := s.HomeShard(hint)
	mask := len(s.shards) - 1 // the shard count is a power of two
	for d := 0; d <= mask; d++ {
		sh := s.shards[(h+d)&mask]
		if off, err := sh.tlsf.Alloc(n); err == nil {
			return s.granted(sh, sh.base+off), nil
		}
	}
	return 0, ErrOutOfMemory
}

// granted records a TLSF grant in the aggregate used counter (the granted
// block can be slightly larger than requested when a remainder was too small
// to split) and returns the offset unchanged.
func (s *ShardedTLSF) granted(sh *tlsfShard, userOff int64) int64 {
	s.used.Add(int64(sh.tlsf.header(userOff-sh.base) &^ 1))
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
	s.used.Add(-int64(hdr &^ 1))
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

// CheckShard verifies shard i's TLSF physical chain invariants. Safe to call
// concurrently with allocation traffic.
func (s *ShardedTLSF) CheckShard(i int) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("memory: no shard %d", i)
	}
	return s.shards[i].tlsf.CheckConsistency()
}

// CheckConsistency checks every shard's TLSF physical chain invariants.
// The aggregate Used is compared against the shards' own counts only by
// quiesced tests, never here — this runs concurrently with traffic in the
// stress tests.
func (s *ShardedTLSF) CheckConsistency() error {
	for i := range s.shards {
		if err := s.CheckShard(i); err != nil {
			return err
		}
	}
	return nil
}
