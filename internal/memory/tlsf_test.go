package memory

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestArenaSlice(t *testing.T) {
	a := NewArena(1024)
	if a.Size() != 1024 {
		t.Fatalf("Size() = %d, want 1024", a.Size())
	}
	s := a.Slice(16, 32)
	if len(s) != 32 {
		t.Fatalf("len(slice) = %d, want 32", len(s))
	}
	s[0] = 0xAB
	if a.Bytes()[16] != 0xAB {
		t.Fatal("slice does not alias arena")
	}
}

func TestArenaSliceOutOfBounds(t *testing.T) {
	a := NewArena(64)
	for _, c := range [][2]int64{{60, 8}, {-8, 8}, {8, -8}, {64, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d, %d) of a 64-byte arena did not panic", c[0], c[1])
				}
			}()
			a.Slice(c[0], c[1])
		}()
	}
}

func TestTLSFAllocFree(t *testing.T) {
	tl := NewTLSF(NewArena(1 << 20))
	off, err := tl.Alloc(1000)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if off%16 != 0 {
		t.Fatalf("offset %d not 16-aligned", off)
	}
	if got := tl.UsableSize(off); got < 1000 {
		t.Fatalf("UsableSize = %d, want >= 1000", got)
	}
	tl.Free(off)
	if err := tl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if tl.Used() != 0 {
		t.Fatalf("Used = %d after freeing everything", tl.Used())
	}
}

func TestTLSFExhaustion(t *testing.T) {
	tl := NewTLSF(NewArena(4096))
	var offs []int64
	for {
		off, err := tl.Alloc(512)
		if err == ErrOutOfMemory {
			break
		}
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		offs = append(offs, off)
	}
	if len(offs) == 0 {
		t.Fatal("could not allocate anything")
	}
	// Free one and the same size must fit again.
	tl.Free(offs[0])
	if _, err := tl.Alloc(512); err != nil {
		t.Fatalf("Alloc after Free: %v", err)
	}
}

func TestTLSFCoalescing(t *testing.T) {
	tl := NewTLSF(NewArena(1 << 16))
	a, _ := tl.Alloc(1024)
	b, _ := tl.Alloc(1024)
	c, _ := tl.Alloc(1024)
	// Free in an order that exercises next-, prev- and both-side coalescing.
	tl.Free(a)
	tl.Free(c)
	tl.Free(b)
	if err := tl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// After full coalescing a near-arena-size allocation must succeed.
	if _, err := tl.Alloc(1<<16 - 64); err != nil {
		t.Fatalf("large Alloc after coalescing: %v", err)
	}
}

func TestTLSFDoubleFreePanics(t *testing.T) {
	tl := NewTLSF(NewArena(4096))
	off, _ := tl.Alloc(100)
	tl.Free(off)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	tl.Free(off)
}

func TestTLSFRejectsBadSizes(t *testing.T) {
	tl := NewTLSF(NewArena(4096))
	if _, err := tl.Alloc(0); err == nil {
		t.Fatal("Alloc(0) should fail")
	}
	if _, err := tl.Alloc(-5); err == nil {
		t.Fatal("Alloc(-5) should fail")
	}
}

func TestTLSFVariableSizes(t *testing.T) {
	tl := NewTLSF(NewArena(1 << 20))
	sizes := []int64{17, 64, 255, 4096, 65536, 100000, 1, 31}
	offs := make([]int64, len(sizes))
	for i, sz := range sizes {
		off, err := tl.Alloc(sz)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", sz, err)
		}
		offs[i] = off
		if got := tl.UsableSize(off); got < sz {
			t.Fatalf("UsableSize(%d) = %d < requested %d", off, got, sz)
		}
	}
	// Allocations must not overlap: write a distinct byte pattern to each.
	a := tl.arena
	for i, off := range offs {
		buf := a.Slice(off, sizes[i])
		for j := range buf {
			buf[j] = byte(i + 1)
		}
	}
	for i, off := range offs {
		buf := a.Slice(off, sizes[i])
		for j := range buf {
			if buf[j] != byte(i+1) {
				t.Fatalf("allocation %d overwritten at byte %d", i, j)
			}
		}
	}
	for _, off := range offs {
		tl.Free(off)
	}
	if err := tl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestTLSFRandomized is a property test: after any interleaving of allocs
// and frees, the physical chain is consistent and all memory is recovered.
func TestTLSFRandomized(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := NewTLSF(NewArena(1 << 18))
		type alloc struct{ off, size int64 }
		var live []alloc
		for i := 0; i < 300; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(live))
				tl.Free(live[j].off)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				sz := int64(1 + rng.Intn(8000))
				off, err := tl.Alloc(sz)
				if err != nil {
					continue // exhausted; fine
				}
				live = append(live, alloc{off, sz})
			}
		}
		if err := tl.CheckConsistency(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, l := range live {
			tl.Free(l.off)
		}
		if tl.Used() != 0 {
			t.Logf("seed %d: leaked %d bytes", seed, tl.Used())
			return false
		}
		return tl.CheckConsistency() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTLSFConcurrent(t *testing.T) {
	tl := NewTLSF(NewArena(4 << 20))
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			var offs []int64
			for i := 0; i < 200; i++ {
				if off, err := tl.Alloc(int64(64 + rng.Intn(1024))); err == nil {
					offs = append(offs, off)
				}
				if len(offs) > 4 {
					tl.Free(offs[0])
					offs = offs[1:]
				}
			}
			for _, off := range offs {
				tl.Free(off)
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if tl.Used() != 0 {
		t.Fatalf("leaked %d bytes after concurrent workload", tl.Used())
	}
	if err := tl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTLSFAllocFree(b *testing.B) {
	tl := NewTLSF(NewArena(64 << 20))
	b.ReportAllocs()
	b.ResetTimer() // the 64 MiB arena is set-up, not the allocator
	for i := 0; i < b.N; i++ {
		off, err := tl.Alloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		tl.Free(off)
	}
}

// TestTLSFReusesExactFitHole is the regression test for the good-fit
// search's blind spot: a request is rounded up to the next size class so
// whatever the search finds is guaranteed to fit, which skips the class a
// free block of exactly the requested size sits in. With uniform page-sized
// allocations that is every hole left between two still-pinned pages: the
// buffer pool reported "exhausted and nothing evictable" with a third of
// its arena free (TestQueriesUnderMemoryPressure under -race).
func TestTLSFReusesExactFitHole(t *testing.T) {
	const page = 32 << 10
	tl := NewTLSF(NewArena(8 * (page + 64)))
	var offs []int64
	for {
		off, err := tl.Alloc(page)
		if err != nil {
			break
		}
		offs = append(offs, off)
	}
	if len(offs) < 3 {
		t.Fatalf("arena held only %d pages", len(offs))
	}
	// Free every other page: each hole is exactly one page, walled in by
	// allocated neighbours, so nothing coalesces.
	holes := 0
	for i := 1; i < len(offs)-1; i += 2 {
		tl.Free(offs[i])
		holes++
	}
	for i := 0; i < holes; i++ {
		if _, err := tl.Alloc(page); err != nil {
			t.Fatalf("allocation %d of %d failed with %d exact-fit holes free: %v", i+1, holes, holes-i, err)
		}
	}
	if _, err := tl.Alloc(page); err == nil {
		t.Fatal("allocated more pages than were freed")
	}
}
