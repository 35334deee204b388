// Package memory provides the raw memory substrate for Pangea's unified
// buffer pool: a contiguous arena standing in for the anonymous-mmap shared
// memory region of the paper (§5), and a two-level segregated fit (TLSF)
// allocator, sharded, used to carve variable-sized pages out of that arena.
package memory

import "fmt"

// Arena is a contiguous region of bytes from which page memory is allocated.
// It models the shared-memory buffer pool: allocators hand out offsets, and
// both the "storage process" and "computation process" sides of Pangea view
// pages as slices of the same arena.
type Arena struct {
	buf []byte
}

// NewArena allocates an arena of the given size in bytes.
func NewArena(size int64) *Arena {
	if size <= 0 {
		panic(fmt.Sprintf("memory: non-positive arena size %d", size))
	}
	return &Arena{buf: make([]byte, size)}
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

// View returns a sub-arena aliasing bytes [off, off+size) of a. Shards of a
// sharded allocator each own one non-overlapping view of the pool's arena.
func (a *Arena) View(off, size int64) *Arena {
	if off < 0 || size <= 0 || off+size > int64(len(a.buf)) {
		panic(fmt.Sprintf("memory: view [%d,%d) out of arena bounds %d", off, off+size, len(a.buf)))
	}
	return &Arena{buf: a.buf[off : off+size : off+size]}
}
