package memory

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"pangea/internal/locking"
)

// Block layout (offsets relative to block start o, arena-absolute):
//
//	[o+0,  o+8):  size|flags — total block size including header; bit0 = free
//	[o+8,  o+16): offset of previous physical block (nullOffset if first)
//	[o+16, o+24): next free block in class list (free blocks only)
//	[o+24, o+32): previous free block in class list (free blocks only)
const (
	tlsfAlign  = 16
	headerSize = 16
	minBlock   = 32 // header + two free-list links
	sli        = 5  // log2 of second-level subdivisions
	slCount    = 1 << sli
	nullOffset = int64(-1)

	// minShardBytes keeps shards large enough to hold real pages; arenas
	// smaller than 2*minShardBytes stay one shard.
	minShardBytes = 1 << 20
	// maxShards caps the shard count regardless of GOMAXPROCS.
	maxShards = 64
)

// ErrOutOfMemory is returned when no free block can satisfy an allocation.
var ErrOutOfMemory = errors.New("memory: out of buffer pool memory")

// ShardedTLSF is the buffer pool's allocator: a two-level segregated fit
// (TLSF) allocator, space-efficient for variable-sized pages carved out of
// one shared memory region (paper §5). All bookkeeping (boundary tags and
// free-list links) lives inside the arena itself, as in an mmap'd shared
// memory segment.
//
// The arena is split into N contiguous shards (N ≈ GOMAXPROCS, power of
// two), each a TLSF heap with its own mutex, bitmaps and free lists.
// Allocations carry a home-shard hint (the pool passes the locality set's
// ID); on exhaustion the allocator steals from the other shards in ring
// order, home+1 first, before reporting ErrOutOfMemory. A single hot set can
// therefore still consume the whole arena. Used and FreeBytes are exact: a
// freed block coalesces in its shard at once, so every free byte can serve
// any size that fits between its neighbours.
type ShardedTLSF struct {
	shards    []*shard
	shardSize int64
	total     int64 // usable (16-aligned) arena bytes across shards
	// The counters below are written by Alloc and Free on every core; the
	// pad keeps them off the cache line of the read-only fields above, which
	// every call reads.
	_ [64]byte
	// used is the bytes handed out, headers included. A block is counted
	// once its shard has granted it and uncounted before its shard's lock
	// lets it go, so used never counts a free byte: Used stays within the
	// arena.
	used atomic.Int64
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

// NewShardedTLSF builds an allocator over the whole arena; see shardCount
// for how nshards is resolved. nshards < 0 panics: silently "rounding" a
// negative shard count hid configuration bugs.
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
		limit := base + s.shardSize
		if i == n-1 {
			limit = total
		}
		s.shards = append(s.shards, newShard(a, base, limit))
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

// Alloc reserves n bytes from a round-robin home shard. Pool code uses
// AllocAffinity so a locality set's pages stay on its home shard.
func (s *ShardedTLSF) Alloc(n int64) (int64, error) {
	return s.AllocAffinity(n, int(s.rr.Add(1)))
}

// AllocAffinity reserves n bytes, preferring the home shard that the hint
// maps to, then stealing from the other shards in ring order, so every shard
// has been tried before ErrOutOfMemory. The region is 16-byte aligned.
func (s *ShardedTLSF) AllocAffinity(n int64, hint int) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("memory: invalid allocation size %d", n)
	}
	h := s.HomeShard(hint)
	mask := len(s.shards) - 1 // the shard count is a power of two
	for d := 0; d <= mask; d++ {
		sh := s.shards[(h+d)&mask]
		sh.mu.Lock()
		off, size := sh.alloc(n)
		sh.mu.Unlock()
		if size > 0 {
			s.used.Add(size)
			return off, nil
		}
	}
	return 0, ErrOutOfMemory
}

// Free releases a region previously returned by Alloc/AllocAffinity back to
// its shard, where it coalesces with its free neighbours at once.
func (s *ShardedTLSF) Free(userOff int64) {
	sh := s.shards[s.ShardOf(userOff)]
	sh.mu.Lock()
	o := userOff - headerSize
	if sh.isFree(o) {
		sh.mu.Unlock()
		panic(fmt.Sprintf("memory: double free at offset %d", userOff))
	}
	// Uncounted before the heap's stores: behind them, the counter's
	// contended cache line made BenchmarkShardedAlloc/shards=auto a quarter
	// slower at -cpu 2 on a 2-vCPU host.
	s.used.Add(-sh.blockSize(o))
	sh.free(userOff)
	sh.mu.Unlock()
}

// Shrink gives back the tail of an allocated region beyond its first n
// bytes, in its shard (see shard.shrink), and returns the bytes released.
func (s *ShardedTLSF) Shrink(userOff, n int64) int64 {
	sh := s.shards[s.ShardOf(userOff)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	freed := sh.shrink(userOff, n)
	s.used.Add(-freed)
	return freed
}

// UsableSize reports the payload capacity of an allocated region.
func (s *ShardedTLSF) UsableSize(userOff int64) int64 {
	sh := s.shards[s.ShardOf(userOff)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.blockSize(userOff-headerSize) - headerSize
}

// MaxAlloc returns the largest single allocation the allocator can
// satisfy when empty: one block spanning the largest shard, rounded down
// to what mappingSearch's class round-up can actually find. CreateSet
// validates page sizes against this, since a page cannot span shards.
func (s *ShardedTLSF) MaxAlloc() int64 {
	// The last shard absorbs the division remainder, so it is the largest.
	sh := s.shards[len(s.shards)-1]
	return classFloor(sh.limit-sh.base) - headerSize
}

// Used returns the bytes currently handed out to callers (including block
// headers). Maintained as one atomic aggregate so the hot allocation path
// never sweeps every shard's locks for its peak-usage and watermark checks.
func (s *ShardedTLSF) Used() int64 { return s.used.Load() }

// FreeBytes returns the bytes not currently allocated, across shards; the
// eviction daemon's watermarks compare against this total.
func (s *ShardedTLSF) FreeBytes() int64 { return s.total - s.used.Load() }

// CheckConsistency walks every shard's physical block chain and verifies
// boundary tags, alignment and coalescing invariants, returning the first
// violation. Safe to call concurrently with allocation traffic.
func (s *ShardedTLSF) CheckConsistency() error {
	for i, sh := range s.shards {
		sh.mu.Lock()
		_, err := sh.check()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// shard is one TLSF heap over bytes [base, limit) of the arena. Its offsets
// are arena-absolute; the first block's prevPhys is nullOffset and no block
// reaches past limit. Its methods run with mu held; ShardedTLSF takes it.
type shard struct {
	mu          locking.Mutex
	arena       *Arena
	base, limit int64
	freeHead    [64][slCount]int64 // head offset of each (fl, sl) free list, -1 empty
	flBitmap    uint64
	slBitmap    [64]uint32
}

// newShard initialises a heap owning arena bytes [base, limit), both
// 16-aligned, as one free block.
func newShard(a *Arena, base, limit int64) *shard {
	if limit-base < minBlock {
		panic("memory: arena too small for TLSF")
	}
	h := &shard{arena: a, base: base, limit: limit}
	h.mu.Init(locking.RankAllocTLSF)
	for fl := range h.freeHead {
		for sl := range h.freeHead[fl] {
			h.freeHead[fl][sl] = nullOffset
		}
	}
	h.setSize(base, limit-base, true)
	h.setPrevPhys(base, nullOffset)
	h.insert(base, limit-base)
	return h
}

func align16(n int64) int64 { return (n + tlsfAlign - 1) &^ (tlsfAlign - 1) }

// --- raw field accessors -------------------------------------------------

func (h *shard) u64(off int64) uint64 {
	return binary.LittleEndian.Uint64(h.arena.Slice(off, 8))
}

func (h *shard) putU64(off int64, v uint64) {
	binary.LittleEndian.PutUint64(h.arena.Slice(off, 8), v)
}

func (h *shard) blockSize(o int64) int64 { return int64(h.u64(o) &^ 1) }
func (h *shard) isFree(o int64) bool     { return h.u64(o)&1 == 1 }

func (h *shard) setSize(o, size int64, free bool) {
	v := uint64(size)
	if free {
		v |= 1
	}
	h.putU64(o, v)
}

func (h *shard) prevPhys(o int64) int64 { return int64(h.u64(o + 8)) }

func (h *shard) setPrevPhys(o, p int64) { h.putU64(o+8, uint64(p)) }

func (h *shard) nextFree(o int64) int64 { return int64(h.u64(o + 16)) }
func (h *shard) prevFree(o int64) int64 { return int64(h.u64(o + 24)) }
func (h *shard) setNextFree(o, v int64) { h.putU64(o+16, uint64(v)) }
func (h *shard) setPrevFree(o, v int64) { h.putU64(o+24, uint64(v)) }

// --- class mapping --------------------------------------------------------

// mappingInsert computes the (fl, sl) class that block size belongs to.
func mappingInsert(size int64) (int, int) {
	fl := bits.Len64(uint64(size)) - 1
	sl := int((uint64(size) >> (uint(fl) - sli)) ^ (1 << sli))
	return fl, sl
}

// mappingSearch rounds the request up so the found class is guaranteed to
// hold blocks that fit, then maps it.
func mappingSearch(size int64) (int, int) {
	fl := bits.Len64(uint64(size)) - 1
	size += (1 << (uint(fl) - sli)) - 1
	return mappingInsert(size)
}

// classFloor rounds size down to its size class's lower bound: the largest
// request that mappingSearch still resolves to (or below) the class a free
// block of this size is inserted into. A lone free block of `size` bytes
// can satisfy any request needing at most classFloor(size) total bytes.
func classFloor(size int64) int64 {
	fl := bits.Len64(uint64(size)) - 1
	if fl <= sli {
		return size // classes this small are exact
	}
	g := int64(1) << (uint(fl) - sli)
	return size &^ (g - 1)
}

// --- free-list maintenance -------------------------------------------------

func (h *shard) insert(o, size int64) {
	fl, sl := mappingInsert(size)
	head := h.freeHead[fl][sl]
	h.setNextFree(o, head)
	h.setPrevFree(o, nullOffset)
	if head != nullOffset {
		h.setPrevFree(head, o)
	}
	h.freeHead[fl][sl] = o
	h.flBitmap |= 1 << uint(fl)
	h.slBitmap[fl] |= 1 << uint(sl)
}

func (h *shard) remove(o int64) {
	fl, sl := mappingInsert(h.blockSize(o))
	next, prev := h.nextFree(o), h.prevFree(o)
	if prev != nullOffset {
		h.setNextFree(prev, next)
	} else {
		h.freeHead[fl][sl] = next
	}
	if next != nullOffset {
		h.setPrevFree(next, prev)
	}
	if h.freeHead[fl][sl] == nullOffset {
		h.slBitmap[fl] &^= 1 << uint(sl)
		if h.slBitmap[fl] == 0 {
			h.flBitmap &^= 1 << uint(fl)
		}
	}
}

// findSuitable locates a non-empty class ≥ (fl, sl); it returns ok=false
// when the heap is exhausted for this size.
func (h *shard) findSuitable(fl, sl int) (int, int, bool) {
	slMap := h.slBitmap[fl] & (^uint32(0) << uint(sl))
	if slMap == 0 {
		flMap := h.flBitmap & (^uint64(0) << uint(fl+1))
		if flMap == 0 {
			return 0, 0, false
		}
		fl = bits.TrailingZeros64(flMap)
		slMap = h.slBitmap[fl]
	}
	return fl, bits.TrailingZeros32(slMap), true
}

// fit finds a free block of at least need bytes, or nullOffset. The good-fit
// search rounds need up to the next size class, so whatever it finds fits,
// but it skips the class need itself maps into. That class is checked
// around it: its head first, in constant time, so a hole Shrink or Free
// left of about this size is taken before a larger block is split; then,
// only when the search finds nothing, a walk of the rest of it. With
// uniform page-sized allocations every hole between two live pages is an
// exact fit in that class, and without the walk the arena reports
// exhaustion while holding free pages.
func (h *shard) fit(need int64) int64 {
	fl, sl := mappingInsert(need)
	head := h.freeHead[fl][sl]
	if head != nullOffset && h.blockSize(head) >= need {
		return head
	}
	if fl, sl, ok := h.findSuitable(mappingSearch(need)); ok {
		return h.freeHead[fl][sl]
	}
	for o := head; o != nullOffset; o = h.nextFree(o) {
		if h.blockSize(o) >= need {
			return o
		}
	}
	return nullOffset
}

// --- heap operations -------------------------------------------------------

// alloc reserves n > 0 bytes. It returns the 16-byte aligned offset of the
// usable region and the block's size, header included (slightly more than
// requested when the remainder was too small to split), or size 0 when no
// free block fits.
func (h *shard) alloc(n int64) (userOff, size int64) {
	need := max(align16(n)+headerSize, minBlock)
	o := h.fit(need)
	if o == nullOffset {
		return 0, 0
	}
	h.remove(o)
	size = h.blockSize(o)
	if rem := size - need; rem >= minBlock {
		remOff := o + need
		h.setSize(remOff, rem, true)
		h.setPrevPhys(remOff, o)
		if nn := remOff + rem; nn < h.limit {
			h.setPrevPhys(nn, remOff)
		}
		h.insert(remOff, rem)
		size = need
	}
	h.setSize(o, size, false)
	return o + headerSize, size
}

// shrink gives back the tail of an allocated region: the block keeps room
// for the first n bytes of its payload, and the rest becomes a free block of
// its own, merged with the next physical block if that is free. It returns
// the bytes released. A tail too small to be a block (under minBlock), or an
// n that is not below the payload, changes nothing and releases 0.
func (h *shard) shrink(userOff, n int64) int64 {
	if n <= 0 {
		return 0
	}
	need := max(align16(n)+headerSize, minBlock)
	o := userOff - headerSize
	if h.isFree(o) {
		panic(fmt.Sprintf("memory: shrink of free block at offset %d", userOff))
	}
	size := h.blockSize(o)
	freed := size - need
	if freed < minBlock {
		return 0
	}
	h.setSize(o, need, false)
	tail, tailSize := o+need, freed
	if nn := o + size; nn < h.limit && h.isFree(nn) {
		h.remove(nn)
		tailSize += h.blockSize(nn)
	}
	h.setSize(tail, tailSize, true)
	h.setPrevPhys(tail, o)
	if nn := tail + tailSize; nn < h.limit {
		h.setPrevPhys(nn, tail)
	}
	h.insert(tail, tailSize)
	return freed
}

// free releases an allocated region, coalescing it with physically
// adjacent free blocks. The caller has checked that the block is allocated.
func (h *shard) free(userOff int64) {
	o := userOff - headerSize
	size := h.blockSize(o)
	// Coalesce with the next physical block.
	if nn := o + size; nn < h.limit && h.isFree(nn) {
		h.remove(nn)
		size += h.blockSize(nn)
	}
	// Coalesce with the previous physical block.
	if p := h.prevPhys(o); p != nullOffset && h.isFree(p) {
		h.remove(p)
		size += o - p
		o = p
	}
	h.setSize(o, size, true)
	if nn := o + size; nn < h.limit {
		h.setPrevPhys(nn, o)
	}
	h.insert(o, size)
}

// check walks the physical block chain, verifies boundary tags, alignment
// and coalescing invariants, and returns the bytes in allocated blocks,
// headers included, or the first violation found.
func (h *shard) check() (int64, error) {
	var used int64
	prev := nullOffset
	prevWasFree := false
	for o := h.base; o < h.limit; {
		size := h.blockSize(o)
		if size < minBlock || size%tlsfAlign != 0 || o+size > h.limit {
			return 0, fmt.Errorf("block at %d has bad size %d", o, size)
		}
		if got := h.prevPhys(o); got != prev {
			return 0, fmt.Errorf("block at %d has prevPhys %d, want %d", o, got, prev)
		}
		free := h.isFree(o)
		if free && prevWasFree {
			return 0, fmt.Errorf("adjacent free blocks at %d and %d not coalesced", prev, o)
		}
		if !free {
			used += size
		}
		prev, prevWasFree = o, free
		o += size
	}
	return used, nil
}
