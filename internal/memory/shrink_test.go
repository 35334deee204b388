package memory

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTLSFShrinkSplitsBlock: a shrunk region keeps room for what it asked
// for, and its tail is one free block that serves the next allocation.
func TestTLSFShrinkSplitsBlock(t *testing.T) {
	h := newHeap(1 << 16)
	a, _ := h.alloc(4096)
	b, _ := h.alloc(4096) // a live next neighbour: the tail cannot merge
	used := heapUsed(t, h)
	if got := h.shrink(a, 100); got != 4096-112 {
		t.Fatalf("shrink(4096 → 100) released %d, want %d", got, 4096-112)
	}
	if got := h.blockSize(a - headerSize); got != 112+headerSize {
		t.Fatalf("block size after shrink = %d, want %d", got, 112+headerSize)
	}
	if got, want := heapUsed(t, h), used-(4096-112); got != want {
		t.Fatalf("heap holds %d bytes after shrink, want %d", got, want)
	}
	// The tail is one free block between a and b, and b's boundary tag
	// names it.
	tail := a - headerSize + 112 + headerSize
	if !h.isFree(tail) || h.blockSize(tail) != 4096-112 || h.prevPhys(b-headerSize) != tail {
		t.Fatalf("tail block at %d: free=%v size=%d, b's prevPhys %d", tail, h.isFree(tail), h.blockSize(tail), h.prevPhys(b-headerSize))
	}
	for _, off := range []int64{a, b} {
		h.free(off)
	}
	if used := heapUsed(t, h); used != 0 {
		t.Fatalf("heap holds %d bytes after freeing everything", used)
	}
}

// TestTLSFShrinkMergesFreeNext: the tail joins a free block after it, so no
// two free blocks lie side by side.
func TestTLSFShrinkMergesFreeNext(t *testing.T) {
	h := newHeap(1 << 16)
	a, _ := h.alloc(4096)
	b, _ := h.alloc(4096)
	guard, _ := h.alloc(64)
	h.free(b)
	if got := h.shrink(a, 1000); got != 4096-1008 {
		t.Fatalf("shrink released %d, want %d", got, 4096-1008)
	}
	heapUsed(t, h) // fails on adjacent free blocks left unmerged
	// The merged hole runs from a's tail to guard.
	tail := a - headerSize + 1008 + headerSize
	hole := guard - headerSize - tail
	if !h.isFree(tail) || h.blockSize(tail) != hole || h.prevPhys(guard-headerSize) != tail {
		t.Fatalf("tail block at %d: free=%v size=%d, want one free block of %d", tail, h.isFree(tail), h.blockSize(tail), hole)
	}
	for _, off := range []int64{a, guard} {
		h.free(off)
	}
	if used := heapUsed(t, h); used != 0 {
		t.Fatalf("heap holds %d bytes after freeing everything", used)
	}
}

// TestTLSFShrinkNoOpBelowMinBlock: a tail too small to be a block, or a size
// that is not smaller, leaves the block as it was.
func TestTLSFShrinkNoOpBelowMinBlock(t *testing.T) {
	h := newHeap(1 << 16)
	a, _ := h.alloc(1024)
	used := heapUsed(t, h)
	for _, n := range []int64{1024 - 16, 1024, 4096, 0, -1} {
		if got := h.shrink(a, n); got != 0 {
			t.Errorf("shrink(1024 → %d) released %d, want 0", n, got)
		}
	}
	if got := heapUsed(t, h); got != used || h.blockSize(a-headerSize) != 1024+headerSize {
		t.Fatalf("no-op shrinks moved the heap's bytes %d → %d, block size to %d", used, got, h.blockSize(a-headerSize))
	}
	// The smallest tail that is a block is released.
	if got := h.shrink(a, 1024-minBlock); got != minBlock {
		t.Fatalf("shrink by one minimal block released %d, want %d", got, minBlock)
	}
	heapUsed(t, h)
}

// TestTLSFShrinkRandomized: any interleaving of alloc, shrink and free keeps
// the physical chain consistent and the bytes each call reports exact, and
// gives every byte back.
func TestTLSFShrinkRandomized(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newHeap(1 << 18)
		live := map[int64]int64{} // offset → block bytes, header included
		var offs []int64
		sum := func() (n int64) {
			for _, b := range live {
				n += b
			}
			return n
		}
		for i := 0; i < 400; i++ {
			switch op := rng.Intn(3); {
			case op == 0 && len(offs) > 0:
				j := rng.Intn(len(offs))
				h.free(offs[j])
				delete(live, offs[j])
				offs[j] = offs[len(offs)-1]
				offs = offs[:len(offs)-1]
			case op == 1 && len(offs) > 0:
				off := offs[rng.Intn(len(offs))]
				live[off] -= h.shrink(off, int64(1+rng.Intn(int(live[off]-headerSize))))
			default:
				off, size := h.alloc(int64(1 + rng.Intn(8000)))
				if size == 0 {
					continue // exhausted; fine
				}
				live[off] = size
				offs = append(offs, off)
			}
			if used, err := h.check(); err != nil || used != sum() {
				t.Logf("seed %d op %d: chain holds %d, live blocks hold %d: %v", seed, i, used, sum(), err)
				return false
			}
		}
		for _, off := range offs {
			h.free(off)
		}
		used, err := h.check()
		return used == 0 && err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestShrinkHoleServesItsOwnClass: the tail Shrink gives back serves the
// next request of its size, which the good-fit search's round-up to the
// next size class would pass over for the free space beyond the last live
// block.
func TestShrinkHoleServesItsOwnClass(t *testing.T) {
	s := NewShardedTLSF(NewArena(64<<10), 0)
	a, _ := s.Alloc(4096)
	if _, err := s.Alloc(4096); err != nil { // walls the tail in
		t.Fatal(err)
	}
	if got := s.Shrink(a, 100); got != 4096-112 {
		t.Fatalf("Shrink(4096 → 100) released %d, want %d", got, 4096-112)
	}
	off, err := s.Alloc(4096 - 112 - headerSize) // exactly the tail's payload
	if err != nil {
		t.Fatal(err)
	}
	if want := a + 112 + headerSize; off != want {
		t.Fatalf("allocation of the tail's size landed at %d, want the tail at %d", off, want)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedShrinkKeepsCounterExact: the aggregate counter follows shrinks
// in every shard and matches the shards' own counts.
func TestShardedShrinkKeepsCounterExact(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewShardedTLSF(NewArena(4<<20), 4)
		var offs []int64
		for i := 0; i < 400; i++ {
			switch op := rng.Intn(3); {
			case op == 0 && len(offs) > 0:
				j := rng.Intn(len(offs))
				s.Free(offs[j])
				offs[j] = offs[len(offs)-1]
				offs = offs[:len(offs)-1]
			case op == 1 && len(offs) > 0:
				off := offs[rng.Intn(len(offs))]
				s.Shrink(off, int64(1+rng.Intn(int(s.UsableSize(off)))))
			default:
				off, err := s.AllocAffinity(int64(1+rng.Intn(16000)), rng.Intn(8))
				if err != nil {
					continue
				}
				offs = append(offs, off)
			}
		}
		if err := s.CheckConsistency(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := checkQuiesced(s, false); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, off := range offs {
			s.Free(off)
		}
		return s.Used() == 0 && checkQuiesced(s, true) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
