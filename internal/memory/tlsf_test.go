package memory

import (
	"math/rand"
	"sync"
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

// newHeap returns one shard heap spanning a fresh arena of size bytes: the
// heap a one-shard ShardedTLSF holds. Tests on one goroutine call its
// methods without its lock.
func newHeap(size int64) *shard { return newShard(NewArena(size), 0, size&^(tlsfAlign-1)) }

// heapUsed checks h's physical chain and returns the bytes its allocated
// blocks hold, headers included.
func heapUsed(t *testing.T, h *shard) int64 {
	t.Helper()
	used, err := h.check()
	if err != nil {
		t.Fatal(err)
	}
	return used
}

func TestTLSFAllocFree(t *testing.T) {
	h := newHeap(1 << 20)
	off, size := h.alloc(1000)
	if size == 0 {
		t.Fatal("alloc(1000) failed on an empty heap")
	}
	if off%16 != 0 {
		t.Fatalf("offset %d not 16-aligned", off)
	}
	if size < 1000+headerSize {
		t.Fatalf("block of %d bytes for 1000, want >= %d", size, 1000+headerSize)
	}
	if used := heapUsed(t, h); used != size {
		t.Fatalf("heap holds %d bytes, alloc reported a %d-byte block", used, size)
	}
	h.free(off)
	if used := heapUsed(t, h); used != 0 {
		t.Fatalf("heap holds %d bytes after freeing everything", used)
	}
}

func TestTLSFExhaustion(t *testing.T) {
	h := newHeap(4096)
	var offs []int64
	for {
		off, size := h.alloc(512)
		if size == 0 {
			break
		}
		offs = append(offs, off)
	}
	if len(offs) == 0 {
		t.Fatal("could not allocate anything")
	}
	// Free one and the same size must fit again.
	h.free(offs[0])
	if _, size := h.alloc(512); size == 0 {
		t.Fatal("alloc after free failed")
	}
}

func TestTLSFCoalescing(t *testing.T) {
	h := newHeap(1 << 16)
	a, _ := h.alloc(1024)
	b, _ := h.alloc(1024)
	c, _ := h.alloc(1024)
	// Free in an order that exercises next-, prev- and both-side coalescing.
	h.free(a)
	h.free(c)
	h.free(b)
	if used := heapUsed(t, h); used != 0 {
		t.Fatalf("heap holds %d bytes after freeing everything", used)
	}
	// After full coalescing a near-arena-size allocation must succeed.
	if _, size := h.alloc(1<<16 - 64); size == 0 {
		t.Fatal("large alloc after coalescing failed")
	}
}

// TestTLSFDoubleFreePanics: on a one-heap allocator a double free panics,
// and leaves the byte counter as it was.
func TestTLSFDoubleFreePanics(t *testing.T) {
	s := NewShardedTLSF(NewArena(4096), 1)
	off, err := s.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	s.Free(off)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
		if s.Used() != 0 {
			t.Fatalf("Used = %d after a refused double free", s.Used())
		}
	}()
	s.Free(off)
}

func TestTLSFRejectsBadSizes(t *testing.T) {
	s := NewShardedTLSF(NewArena(4096), 1)
	if _, err := s.Alloc(0); err == nil {
		t.Fatal("Alloc(0) should fail")
	}
	if _, err := s.Alloc(-5); err == nil {
		t.Fatal("Alloc(-5) should fail")
	}
	if s.Used() != 0 {
		t.Fatalf("Used = %d after rejected allocations", s.Used())
	}
}

func TestTLSFVariableSizes(t *testing.T) {
	h := newHeap(1 << 20)
	sizes := []int64{17, 64, 255, 4096, 65536, 100000, 1, 31}
	offs := make([]int64, len(sizes))
	for i, sz := range sizes {
		off, size := h.alloc(sz)
		if size == 0 {
			t.Fatalf("alloc(%d) failed", sz)
		}
		offs[i] = off
		if got := size - headerSize; got < sz {
			t.Fatalf("block at %d holds %d < requested %d", off, got, sz)
		}
	}
	// Allocations must not overlap: write a distinct byte pattern to each.
	a := h.arena
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
		h.free(off)
	}
	if used := heapUsed(t, h); used != 0 {
		t.Fatalf("heap holds %d bytes after freeing everything", used)
	}
}

// TestTLSFRandomized is a property test: after any interleaving of allocs
// and frees, the physical chain is consistent and all memory is recovered.
func TestTLSFRandomized(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newHeap(1 << 18)
		var live []int64
		size := map[int64]int64{} // offset → block bytes alloc reported
		var held int64            // bytes of the blocks in live
		for i := 0; i < 300; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(live))
				h.free(live[j])
				held -= size[live[j]]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				off, n := h.alloc(int64(1 + rng.Intn(8000)))
				if n == 0 {
					continue // exhausted; fine
				}
				size[off] = n
				held += n
				live = append(live, off)
			}
		}
		if used, err := h.check(); err != nil || used != held {
			t.Logf("seed %d: chain holds %d bytes, %d reported: %v", seed, used, held, err)
			return false
		}
		for _, off := range live {
			h.free(off)
		}
		used, err := h.check()
		if used != 0 || err != nil {
			t.Logf("seed %d: %d bytes left after freeing everything: %v", seed, used, err)
		}
		return used == 0 && err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTLSFConcurrent: goroutines that take the heap's lock around each
// call, as ShardedTLSF does, leave it consistent and empty.
func TestTLSFConcurrent(t *testing.T) {
	h := newHeap(4 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			free := func(off int64) {
				h.mu.Lock()
				defer h.mu.Unlock()
				h.free(off)
			}
			var offs []int64
			for i := 0; i < 200; i++ {
				h.mu.Lock()
				off, size := h.alloc(int64(64 + rng.Intn(1024)))
				h.mu.Unlock()
				if size > 0 {
					offs = append(offs, off)
				}
				if len(offs) > 4 {
					free(offs[0])
					offs = offs[1:]
				}
			}
			for _, off := range offs {
				free(off)
			}
		}(g)
	}
	wg.Wait()
	if used := heapUsed(t, h); used != 0 {
		t.Fatalf("leaked %d bytes after concurrent workload", used)
	}
}

// BenchmarkTLSFAllocFree times one shard heap's alloc and free, each under
// the heap's lock, without the allocator's byte counter.
func BenchmarkTLSFAllocFree(b *testing.B) {
	h := newHeap(64 << 20)
	b.ReportAllocs()
	b.ResetTimer() // the 64 MiB arena is set-up, not the allocator
	for i := 0; i < b.N; i++ {
		h.mu.Lock()
		off, size := h.alloc(4096)
		h.mu.Unlock()
		if size == 0 {
			b.Fatal("alloc(4096) failed")
		}
		h.mu.Lock()
		h.free(off)
		h.mu.Unlock()
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
	h := newHeap(8 * (page + 64))
	var offs []int64
	for {
		off, size := h.alloc(page)
		if size == 0 {
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
		h.free(offs[i])
		holes++
	}
	for i := 0; i < holes; i++ {
		if _, size := h.alloc(page); size == 0 {
			t.Fatalf("allocation %d of %d failed with %d exact-fit holes free", i+1, holes, holes-i)
		}
	}
	if _, size := h.alloc(page); size > 0 {
		t.Fatal("allocated more pages than were freed")
	}
}
