//go:build unix && !race

package memory

import (
	"fmt"
	"runtime"
	"syscall"
)

// newArena maps size bytes of private anonymous memory. Only the arena's
// finalizer unmaps it: a touch after munmap is a fault, not an error, and a
// scan handler may outlive its connection. The finalizer must not close over
// a, or the arena would stay reachable and never be unmapped.
func newArena(size int) *Arena {
	buf, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("memory: map a %d-byte arena: %v", size, err))
	}
	a := &Arena{buf: buf}
	runtime.SetFinalizer(a, func(a *Arena) {
		if err := syscall.Munmap(a.buf); err != nil {
			panic(fmt.Sprintf("memory: unmap a %d-byte arena: %v", len(a.buf), err))
		}
	})
	return a
}
