//go:build unix && !race

package memory

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// mapped reports whether /proc/self/maps lists a mapping that covers
// [start, end).
func mapped(t *testing.T, start, end uintptr) bool {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		var lo, hi uintptr
		if _, err := fmt.Sscanf(line, "%x-%x", &lo, &hi); err == nil && lo <= start && end <= hi {
			return true
		}
	}
	return false
}

func TestUnreachableArenaIsUnmapped(t *testing.T) {
	const size = 16 << 20
	start := func() uintptr {
		s := NewShardedTLSF(NewArena(size), 4)
		return uintptr(unsafe.Pointer(unsafe.SliceData(s.shards[0].arena.Bytes())))
	}()
	if !mapped(t, start, start+size) {
		t.Fatalf("a fresh arena at %#x is not in /proc/self/maps", start)
	}
	collect()
	if mapped(t, start, start+size) {
		t.Fatalf("the arena at %#x is still mapped after its pool became unreachable", start)
	}
}
