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
