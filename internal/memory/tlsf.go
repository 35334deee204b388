package memory

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"pangea/internal/locking"
)

// TLSF is a two-level segregated fit allocator over an Arena. Pangea uses it
// as the default pool-based allocator of the unified buffer pool because it
// is space-efficient when allocating variable-sized pages from one shared
// memory region (paper §5). All bookkeeping (boundary tags and free-list
// links) lives inside the arena itself, exactly as in an mmap'd shared
// memory segment.
//
// Block layout (offsets relative to block start o):
//
//	[o+0,  o+8):  size|flags — total block size including header; bit0 = free
//	[o+8,  o+16): offset of previous physical block (nullOffset if first)
//	[o+16, o+24): next free block in class list (free blocks only)
//	[o+24, o+32): previous free block in class list (free blocks only)
type TLSF struct {
	mu       locking.Mutex
	arena    *Arena
	freeHead [64][slCount]int64 // head offset of each (fl, sl) free list, -1 empty
	flBitmap uint64
	slBitmap [64]uint32
	used     int64 // bytes handed out to callers, including headers
}

const (
	tlsfAlign  = 16
	headerSize = 16
	minBlock   = 32 // header + two free-list links
	sli        = 5  // log2 of second-level subdivisions
	slCount    = 1 << sli
	nullOffset = int64(-1)
)

// ErrOutOfMemory is returned when no free block can satisfy an allocation.
var ErrOutOfMemory = errors.New("memory: out of buffer pool memory")

// NewTLSF initialises a TLSF allocator owning the whole arena.
func NewTLSF(a *Arena) *TLSF {
	t := &TLSF{arena: a}
	t.mu.Init(locking.RankAllocTLSF)
	for fl := range t.freeHead {
		for sl := range t.freeHead[fl] {
			t.freeHead[fl][sl] = nullOffset
		}
	}
	total := a.Size() &^ (tlsfAlign - 1)
	if total < minBlock {
		panic("memory: arena too small for TLSF")
	}
	t.setSize(0, total, true)
	t.setPrevPhys(0, nullOffset)
	t.insert(0, total)
	return t
}

func align16(n int64) int64 { return (n + tlsfAlign - 1) &^ (tlsfAlign - 1) }

// --- raw field accessors -------------------------------------------------

func (t *TLSF) u64(off int64) uint64 {
	return binary.LittleEndian.Uint64(t.arena.Slice(off, 8))
}

func (t *TLSF) putU64(off int64, v uint64) {
	binary.LittleEndian.PutUint64(t.arena.Slice(off, 8), v)
}

func (t *TLSF) blockSize(o int64) int64 { return int64(t.u64(o) &^ 1) }
func (t *TLSF) isFree(o int64) bool     { return t.u64(o)&1 == 1 }

func (t *TLSF) setSize(o, size int64, free bool) {
	v := uint64(size)
	if free {
		v |= 1
	}
	t.putU64(o, v)
}

func (t *TLSF) prevPhys(o int64) int64 { return int64(t.u64(o + 8)) }

func (t *TLSF) setPrevPhys(o, p int64) { t.putU64(o+8, uint64(p)) }

func (t *TLSF) nextFree(o int64) int64 { return int64(t.u64(o + 16)) }
func (t *TLSF) prevFree(o int64) int64 { return int64(t.u64(o + 24)) }
func (t *TLSF) setNextFree(o, v int64) { t.putU64(o+16, uint64(v)) }
func (t *TLSF) setPrevFree(o, v int64) { t.putU64(o+24, uint64(v)) }
func (t *TLSF) nextPhys(o int64) int64 { return o + t.blockSize(o) }
func (t *TLSF) arenaLimit() int64      { return t.arena.Size() &^ (tlsfAlign - 1) }

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

func (t *TLSF) insert(o, size int64) {
	fl, sl := mappingInsert(size)
	head := t.freeHead[fl][sl]
	t.setNextFree(o, head)
	t.setPrevFree(o, nullOffset)
	if head != nullOffset {
		t.setPrevFree(head, o)
	}
	t.freeHead[fl][sl] = o
	t.flBitmap |= 1 << uint(fl)
	t.slBitmap[fl] |= 1 << uint(sl)
}

func (t *TLSF) remove(o int64) {
	fl, sl := mappingInsert(t.blockSize(o))
	next, prev := t.nextFree(o), t.prevFree(o)
	if prev != nullOffset {
		t.setNextFree(prev, next)
	} else {
		t.freeHead[fl][sl] = next
	}
	if next != nullOffset {
		t.setPrevFree(next, prev)
	}
	if t.freeHead[fl][sl] == nullOffset {
		t.slBitmap[fl] &^= 1 << uint(sl)
		if t.slBitmap[fl] == 0 {
			t.flBitmap &^= 1 << uint(fl)
		}
	}
}

// findSuitable locates a non-empty class ≥ (fl, sl); it returns ok=false
// when the allocator is exhausted for this size.
func (t *TLSF) findSuitable(fl, sl int) (int, int, bool) {
	slMap := t.slBitmap[fl] & (^uint32(0) << uint(sl))
	if slMap == 0 {
		flMap := t.flBitmap & (^uint64(0) << uint(fl+1))
		if flMap == 0 {
			return 0, 0, false
		}
		fl = bits.TrailingZeros64(flMap)
		slMap = t.slBitmap[fl]
	}
	return fl, bits.TrailingZeros32(slMap), true
}

// --- public API -------------------------------------------------------------

// Alloc reserves n bytes and returns the offset of the usable region within
// the arena. The region is 16-byte aligned.
func (t *TLSF) Alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("memory: invalid allocation size %d", n)
	}
	// need is the total block size, header included.
	need := align16(n) + headerSize
	if need < minBlock {
		need = minBlock
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	var o int64
	if fl, sl, ok := t.findSuitable(mappingSearch(need)); ok {
		o = t.freeHead[fl][sl]
	} else if o = t.firstFitInClass(need); o == nullOffset {
		return 0, ErrOutOfMemory
	}
	t.remove(o)
	size := t.blockSize(o)

	if rem := size - need; rem >= minBlock {
		remOff := o + need
		t.setSize(remOff, rem, true)
		t.setPrevPhys(remOff, o)
		if nn := remOff + rem; nn < t.arenaLimit() {
			t.setPrevPhys(nn, remOff)
		}
		t.insert(remOff, rem)
		size = need
	}
	t.setSize(o, size, false)
	t.used += size
	return o + headerSize, nil
}

// firstFitInClass walks the one size class need itself maps into — the class
// mappingSearch's round-up skips — for a block that fits. It is the fallback
// when the constant-time search finds nothing: with uniform page-sized
// allocations every hole between two live pages is an exact fit that only
// this walk can see, and without it the arena reports exhaustion while
// holding free pages.
func (t *TLSF) firstFitInClass(need int64) int64 {
	fl, sl := mappingInsert(need)
	for o := t.freeHead[fl][sl]; o != nullOffset; o = t.nextFree(o) {
		if t.blockSize(o) >= need {
			return o
		}
	}
	return nullOffset
}

// Shrink gives back the tail of an allocated region: the block keeps room
// for the first n bytes of its payload, and the rest becomes a free block of
// its own, merged with the next physical block if that is free. It returns
// the bytes released. A tail too small to be a block (under minBlock), or an
// n that is not below the payload, changes nothing and releases 0.
func (t *TLSF) Shrink(userOff, n int64) int64 {
	if n <= 0 {
		return 0
	}
	need := max(align16(n)+headerSize, minBlock)
	t.mu.Lock()
	defer t.mu.Unlock()
	o := userOff - headerSize
	if t.isFree(o) {
		panic(fmt.Sprintf("memory: shrink of free block at offset %d", userOff))
	}
	size := t.blockSize(o)
	freed := size - need
	if freed < minBlock {
		return 0
	}
	t.setSize(o, need, false)
	t.used -= freed
	tail, tailSize := o+need, freed
	if nn := o + size; nn < t.arenaLimit() && t.isFree(nn) {
		t.remove(nn)
		tailSize += t.blockSize(nn)
	}
	t.setSize(tail, tailSize, true)
	t.setPrevPhys(tail, o)
	if nn := tail + tailSize; nn < t.arenaLimit() {
		t.setPrevPhys(nn, tail)
	}
	t.insert(tail, tailSize)
	return freed
}

// header returns the raw size|flags word of an allocated block without
// taking the allocator lock. Safe only for the block's current owner: TLSF
// writes the first header word of an allocated block only in Shrink, which
// the owner calls (coalescing touches only its prev-phys word).
func (t *TLSF) header(userOff int64) uint64 { return t.u64(userOff - headerSize) }

// Free releases a region previously returned by Alloc, coalescing with
// physically adjacent free blocks.
func (t *TLSF) Free(userOff int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := userOff - headerSize
	if t.isFree(o) {
		panic(fmt.Sprintf("memory: double free at offset %d", userOff))
	}
	size := t.blockSize(o)
	t.used -= size

	// Coalesce with the next physical block.
	if nn := o + size; nn < t.arenaLimit() && t.isFree(nn) {
		t.remove(nn)
		size += t.blockSize(nn)
	}
	// Coalesce with the previous physical block.
	if p := t.prevPhys(o); p != nullOffset && t.isFree(p) {
		t.remove(p)
		size += o - p
		o = p
	}
	t.setSize(o, size, true)
	if nn := o + size; nn < t.arenaLimit() {
		t.setPrevPhys(nn, o)
	}
	t.insert(o, size)
}

// UsableSize reports the payload capacity of an allocated region.
func (t *TLSF) UsableSize(userOff int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.blockSize(userOff-headerSize) - headerSize
}

// Used returns the number of bytes currently allocated, including block
// headers; Free bytes are the remainder of the arena.
func (t *TLSF) Used() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.used
}

// FreeBytes returns the bytes not currently allocated.
func (t *TLSF) FreeBytes() int64 { return t.arenaLimit() - t.Used() }

// CheckConsistency walks the physical block chain and verifies boundary
// tags, alignment and coalescing invariants. It is used by tests and returns
// the first violation found.
func (t *TLSF) CheckConsistency() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	limit := t.arenaLimit()
	prev := nullOffset
	prevWasFree := false
	for o := int64(0); o < limit; {
		size := t.blockSize(o)
		if size < minBlock || size%tlsfAlign != 0 {
			return fmt.Errorf("block at %d has bad size %d", o, size)
		}
		if got := t.prevPhys(o); got != prev {
			return fmt.Errorf("block at %d has prevPhys %d, want %d", o, got, prev)
		}
		free := t.isFree(o)
		if free && prevWasFree {
			return fmt.Errorf("adjacent free blocks at %d and %d not coalesced", prev, o)
		}
		prev, prevWasFree = o, free
		o += size
	}
	return nil
}
