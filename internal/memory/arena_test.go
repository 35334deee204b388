package memory

import (
	"runtime"
	"testing"
	"time"
)

// collect runs the garbage collector twice and gives the finalizer goroutine
// time to run what the collections queued.
func collect() {
	for i := 0; i < 2; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestNewArenaReadsZero(t *testing.T) {
	const size = 64 << 20
	buf := NewArena(size).Bytes()
	for _, off := range []int{0, size / 2, size - 1} {
		if buf[off] != 0 {
			t.Fatalf("byte %d of a fresh arena = %d, want 0", off, buf[off])
		}
	}
}

// A shard's view must keep the mapping under it alive after the pool's
// arena and allocator are gone: a write through a view of an unmapped arena
// is a fault, which ends the test binary.
func TestArenaViewKeepsMappingAlive(t *testing.T) {
	view := func() *Arena {
		s := NewShardedTLSF(NewArena(8<<20), 4)
		return s.shards[1].tlsf.arena
	}()
	collect()
	buf := view.Bytes()
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := range buf {
		if buf[i] != byte(i) {
			t.Fatalf("byte %d of the view = %d, want %d", i, buf[i], byte(i))
		}
	}
	runtime.KeepAlive(view)
}
