//go:build !unix || race

package memory

// newArena allocates the arena on the Go heap. Race builds take this file on
// unix too: the race detector does not instrument mapped memory, so a mapped
// arena would hide every race on page bytes.
func newArena(size int) *Arena { return &Arena{buf: make([]byte, size)} }
