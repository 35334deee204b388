// Package memory provides the raw memory substrate for Pangea's unified
// buffer pool: a contiguous arena, one anonymous mapping private to the
// process as the paper's pool is one anonymous-mmap region (§5), and a
// two-level segregated fit (TLSF) allocator, sharded, used to carve
// variable-sized pages out of that arena. Race and non-unix builds keep the
// arena on the Go heap (arena_heap.go).
package memory

import "fmt"

// Arena is a contiguous region of bytes from which page memory is allocated.
// It models the shared-memory buffer pool: allocators hand out offsets, and
// both the "storage process" and "computation process" sides of Pangea view
// pages as slices of the same arena.
//
// A mapping is unmapped once its Arena is unreachable. A byte slice of it
// keeps nothing alive: it is valid only while its holder reaches the arena
// too, as a pinned page does through its set and its pool.
type Arena struct {
	buf []byte
}

// NewArena returns a zeroed arena of size bytes. A mapped one costs no
// memory until touched: the kernel zero-fills each page at its first touch.
func NewArena(size int64) *Arena {
	if size <= 0 || int64(int(size)) != size {
		panic(fmt.Sprintf("memory: invalid arena size %d", size))
	}
	return newArena(int(size))
}

// Size returns the arena capacity in bytes.
func (a *Arena) Size() int64 { return int64(len(a.buf)) }

// Slice returns the sub-slice [off, off+n) of the arena. It panics if the
// range is out of bounds, which always indicates allocator corruption. The
// check is the slice expression's own, so that Slice inlines: the TLSF
// calls it for every boundary-tag word it reads or writes.
func (a *Arena) Slice(off, n int64) []byte {
	return a.buf[off : off+n : off+n]
}

// Bytes exposes the whole arena. Intended for tests and for the data proxy,
// which shares the arena with computation threads.
func (a *Arena) Bytes() []byte { return a.buf }
