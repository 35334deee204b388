package layered

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// IgnitePageSize is the 16 KB hard page size limitation the paper observes
// in Ignite (§9.1.1).
const IgnitePageSize = 16 << 10

// ErrIgniteCrash models the segmentation fault Ignite throws when the
// working set exceeds its configured off-heap region (§9.1.1, "Ignite
// throws a segmentation fault when processing 2 billion or more points").
var ErrIgniteCrash = errors.New("layered: ignite segmentation fault (off-heap region exhausted)")

// Ignite models an Ignite-style shared store: objects are packed into
// 16 KB hard pages inside a bounded off-heap region, updates fragment
// pages, and a compactor periodically rewrites the whole live region —
// the "about 40% of time in memory compaction due to fragmentation" the
// paper profiles. There is no spill path: exhausting the region crashes.
type Ignite struct {
	offHeap int64
	pages   [][]byte
	cur     int
	curOff  int
	files   map[string][]igniteLoc

	liveBytes    int64
	deadBytes    int64
	compactions  int64
	compactedByt int64
}

type igniteLoc struct {
	page, off int
}

// NewIgnite builds a store with the given off-heap region size.
func NewIgnite(offHeapBytes int64) *Ignite {
	return &Ignite{offHeap: offHeapBytes, cur: -1, files: make(map[string][]igniteLoc)}
}

// Create starts a new dataset.
func (g *Ignite) Create(name string) { g.files[name] = nil }

// WriteObject serializes an object into the off-heap region.
func (g *Ignite) WriteObject(name string, obj []byte) error {
	need := 4 + len(obj)
	if need > IgnitePageSize {
		return fmt.Errorf("layered: ignite object of %d bytes exceeds the 16KB hard page size", len(obj))
	}
	if g.cur < 0 || g.curOff+need > IgnitePageSize {
		// Fragmentation: the tail of the old page is wasted.
		if g.cur >= 0 {
			g.deadBytes += int64(IgnitePageSize - g.curOff)
		}
		if int64(len(g.pages)+1)*IgnitePageSize > g.offHeap {
			if err := g.compact(); err != nil {
				return err
			}
			if int64(len(g.pages)+1)*IgnitePageSize > g.offHeap {
				return ErrIgniteCrash
			}
		}
		g.pages = append(g.pages, make([]byte, IgnitePageSize))
		g.cur = len(g.pages) - 1
		g.curOff = 0
	}
	buf := g.pages[g.cur]
	binary.LittleEndian.PutUint32(buf[g.curOff:], uint32(len(obj)))
	copy(buf[g.curOff+4:], obj) // serialization copy into off-heap
	g.files[name] = append(g.files[name], igniteLoc{g.cur, g.curOff})
	g.curOff += need
	g.liveBytes += int64(need)
	return nil
}

// compact rewrites every live object into fresh pages — the de-fragmentation
// pass that dominated the paper's Ignite profile. It is a real copy of the
// whole live region.
func (g *Ignite) compact() error {
	g.compactions++
	oldPages := g.pages
	g.pages = nil
	g.cur = -1
	g.curOff = 0
	g.deadBytes = 0
	g.liveBytes = 0
	for name, locs := range g.files {
		newLocs := make([]igniteLoc, 0, len(locs))
		for _, loc := range locs {
			buf := oldPages[loc.page]
			n := binary.LittleEndian.Uint32(buf[loc.off:])
			obj := buf[loc.off+4 : loc.off+4+int(n)]
			g.compactedByt += int64(n)
			if g.cur < 0 || g.curOff+4+int(n) > IgnitePageSize {
				g.pages = append(g.pages, make([]byte, IgnitePageSize))
				g.cur = len(g.pages) - 1
				g.curOff = 0
			}
			dst := g.pages[g.cur]
			binary.LittleEndian.PutUint32(dst[g.curOff:], n)
			copy(dst[g.curOff+4:], obj)
			newLocs = append(newLocs, igniteLoc{g.cur, g.curOff})
			g.curOff += 4 + int(n)
			g.liveBytes += int64(4 + n)
		}
		g.files[name] = newLocs
	}
	return nil
}

// Scan deserializes every object of a dataset to fn.
func (g *Ignite) Scan(name string, fn func(obj []byte) error) error {
	for _, loc := range g.files[name] {
		buf := g.pages[loc.page]
		n := binary.LittleEndian.Uint32(buf[loc.off:])
		obj := make([]byte, n)
		copy(obj, buf[loc.off+4:loc.off+4+int(n)]) // deserialization copy
		if err := fn(obj); err != nil {
			return err
		}
	}
	return nil
}

// Used reports the off-heap bytes in use (whole pages).
func (g *Ignite) Used() int64 { return int64(len(g.pages)) * IgnitePageSize }

// Compactions reports how many de-fragmentation passes ran.
func (g *Ignite) Compactions() int64 { return g.compactions }
