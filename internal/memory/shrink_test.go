package memory

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTLSFShrinkSplitsBlock: a shrunk region keeps room for what it asked
// for, and its tail is one free block that serves the next allocation.
func TestTLSFShrinkSplitsBlock(t *testing.T) {
	tl := NewTLSF(NewArena(1 << 16))
	a, _ := tl.Alloc(4096)
	b, _ := tl.Alloc(4096) // a live next neighbour: the tail cannot merge
	used := tl.Used()
	if got := tl.Shrink(a, 100); got != 4096-112 {
		t.Fatalf("Shrink(4096 → 100) released %d, want %d", got, 4096-112)
	}
	if got := tl.UsableSize(a); got != 112 {
		t.Fatalf("UsableSize after shrink = %d, want 112", got)
	}
	if got, want := tl.Used(), used-(4096-112); got != want {
		t.Fatalf("Used = %d after shrink, want %d", got, want)
	}
	if err := tl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The tail is one free block between a and b, and b's boundary tag
	// names it.
	tail := a - headerSize + 112 + headerSize
	if !tl.isFree(tail) || tl.blockSize(tail) != 4096-112 || tl.prevPhys(b-headerSize) != tail {
		t.Fatalf("tail block at %d: free=%v size=%d, b's prevPhys %d", tail, tl.isFree(tail), tl.blockSize(tail), tl.prevPhys(b-headerSize))
	}
	for _, off := range []int64{a, b} {
		tl.Free(off)
	}
	if tl.Used() != 0 {
		t.Fatalf("Used = %d after freeing everything", tl.Used())
	}
	if err := tl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestTLSFShrinkMergesFreeNext: the tail joins a free block after it, so no
// two free blocks lie side by side.
func TestTLSFShrinkMergesFreeNext(t *testing.T) {
	tl := NewTLSF(NewArena(1 << 16))
	a, _ := tl.Alloc(4096)
	b, _ := tl.Alloc(4096)
	guard, _ := tl.Alloc(64)
	tl.Free(b)
	if got := tl.Shrink(a, 1000); got != 4096-1008 {
		t.Fatalf("Shrink released %d, want %d", got, 4096-1008)
	}
	if err := tl.CheckConsistency(); err != nil {
		t.Fatal(err) // reports adjacent free blocks left unmerged
	}
	// The merged hole runs from a's tail to guard.
	tail := a - headerSize + 1008 + headerSize
	hole := guard - headerSize - tail
	if !tl.isFree(tail) || tl.blockSize(tail) != hole || tl.prevPhys(guard-headerSize) != tail {
		t.Fatalf("tail block at %d: free=%v size=%d, want one free block of %d", tail, tl.isFree(tail), tl.blockSize(tail), hole)
	}
	for _, off := range []int64{a, guard} {
		tl.Free(off)
	}
	if tl.Used() != 0 {
		t.Fatalf("Used = %d after freeing everything", tl.Used())
	}
}

// TestTLSFShrinkNoOpBelowMinBlock: a tail too small to be a block, or a size
// that is not smaller, leaves the block as it was.
func TestTLSFShrinkNoOpBelowMinBlock(t *testing.T) {
	tl := NewTLSF(NewArena(1 << 16))
	a, _ := tl.Alloc(1024)
	used := tl.Used()
	for _, n := range []int64{1024 - 16, 1024, 4096, 0, -1} {
		if got := tl.Shrink(a, n); got != 0 {
			t.Errorf("Shrink(1024 → %d) released %d, want 0", n, got)
		}
	}
	if tl.Used() != used || tl.UsableSize(a) != 1024 {
		t.Fatalf("no-op shrinks moved Used %d → %d, UsableSize to %d", used, tl.Used(), tl.UsableSize(a))
	}
	// The smallest tail that is a block is released.
	if got := tl.Shrink(a, 1024-minBlock); got != minBlock {
		t.Fatalf("Shrink by one minimal block released %d, want %d", got, minBlock)
	}
	if err := tl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestTLSFShrinkRandomized: any interleaving of Alloc, Shrink and Free keeps
// the physical chain consistent and Used exact, and gives every byte back.
func TestTLSFShrinkRandomized(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := NewTLSF(NewArena(1 << 18))
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
				tl.Free(offs[j])
				delete(live, offs[j])
				offs[j] = offs[len(offs)-1]
				offs = offs[:len(offs)-1]
			case op == 1 && len(offs) > 0:
				off := offs[rng.Intn(len(offs))]
				freed := tl.Shrink(off, int64(1+rng.Intn(int(tl.UsableSize(off)))))
				live[off] -= freed
			default:
				off, err := tl.Alloc(int64(1 + rng.Intn(8000)))
				if err != nil {
					continue // exhausted; fine
				}
				live[off] = tl.UsableSize(off) + headerSize
				offs = append(offs, off)
			}
			if tl.Used() != sum() {
				t.Logf("seed %d op %d: Used %d, live blocks hold %d", seed, i, tl.Used(), sum())
				return false
			}
		}
		if err := tl.CheckConsistency(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, off := range offs {
			tl.Free(off)
		}
		return tl.Used() == 0 && tl.CheckConsistency() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
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
