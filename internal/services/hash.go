package services

import (
	"encoding/binary"
	"fmt"

	"pangea/internal/core"
)

// The hash service (§8) adopts a dynamic partitioning approach: each
// buffer-pool page contains an independent hash table plus all of its
// key-value pairs, appended one after another behind the bucket array, so
// every entry is bounded to the page. No entry is ever freed — a full page is
// retired whole — so the page needs no allocator, only a cursor. All hash
// partitions are grouped into one locality set. When a page fills, a new
// page is allocated (splitting a child partition); when the buffer pool
// itself is short, full pages are unpinned and spilled to disk as
// partial-aggregation results, and Result re-aggregates the spilled
// partials.
//
// In-page layout:
//
//	[0:4)    u32 bucket count B
//	[4:8)    u32 append cursor: bytes of the entry region in use
//	[8:12)   u32 value size V
//	[12:12+4B) bucket heads: u32 entry offsets, 0 = empty
//	[...:)   entry region, filled front to back
//
// Entry layout, each entry rounded up to 8 bytes so values stay aligned
// within the region:
//
//	[0:4)   u32 next entry offset (0 = end of chain)
//	[4:8)   u32 key length
//	[8:8+V) value bytes
//	[8+V:)  key bytes
//
// Entry offsets are relative to the entry region and stored +1 so that 0 can
// mean "nil".

const (
	hashHdrSize    = 12
	entryHdrSize   = 8
	hashFillDenom  = 6  // one bucket per hashFillDenom*32 bytes of page
	hashMinBuckets = 16 // a page's bucket count is a power of two, at least this
)

// entrySize is the bytes an entry with a key of klen bytes takes in the
// region.
func entrySize(valSize, klen int) int { return (entryHdrSize + valSize + klen + 7) &^ 7 }

// hashPartition is one page-local hash table.
type hashPartition struct {
	page    *core.Page
	cursor  []byte // the header's append cursor, aliasing the page
	buckets []byte // aliases the page
	entries []byte // the entry region, aliasing the page
	nb      uint32
	vs      int // value size
}

// fnv1a hashes a key.
func fnv1a(key []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// initHashPage formats a fresh page as an empty hash partition.
func initHashPage(p *core.Page, valSize int) *hashPartition {
	buf := p.Bytes()
	// The bucket count is a power of two, so a key's bucket is a mask of its
	// hash, not a division on every lookup.
	nb := uint32(hashMinBuckets)
	for int(nb)*2*hashFillDenom*32 <= len(buf) {
		nb *= 2
	}
	binary.LittleEndian.PutUint32(buf[0:4], nb)
	binary.LittleEndian.PutUint32(buf[4:8], 0)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(valSize))
	clear(buf[hashHdrSize : hashHdrSize+4*int(nb)])
	return openHashPage(p)
}

// openHashPage builds a partition view over an existing page image (a fresh
// one, or a spilled partial being re-aggregated).
func openHashPage(p *core.Page) *hashPartition {
	buf := p.Bytes()
	nb := binary.LittleEndian.Uint32(buf[0:4])
	bucketEnd := hashHdrSize + 4*int(nb)
	return &hashPartition{
		page:    p,
		cursor:  buf[4:8],
		buckets: buf[hashHdrSize:bucketEnd],
		entries: buf[bucketEnd:],
		nb:      nb,
		vs:      int(binary.LittleEndian.Uint32(buf[8:12])),
	}
}

func (hp *hashPartition) bucketHead(b uint32) uint32 {
	return binary.LittleEndian.Uint32(hp.buckets[4*b : 4*b+4])
}

func (hp *hashPartition) setBucketHead(b, off uint32) {
	binary.LittleEndian.PutUint32(hp.buckets[4*b:4*b+4], off)
}

// entry views the entry at region offset off (stored +1).
func (hp *hashPartition) entry(off uint32) []byte { return hp.entries[off-1:] }

// find returns the offset (+1) of the entry holding key, whose hash is h, or
// 0.
func (hp *hashPartition) find(h uint64, key []byte) uint32 {
	for off := hp.bucketHead(uint32(h) & (hp.nb - 1)); off != 0; {
		e := hp.entry(off)
		klen := binary.LittleEndian.Uint32(e[4:8])
		if int(klen) == len(key) && string(e[entryHdrSize+hp.vs:entryHdrSize+hp.vs+int(klen)]) == string(key) {
			return off
		}
		off = binary.LittleEndian.Uint32(e[0:4])
	}
	return 0
}

// value returns the mutable value slice of the entry at off.
func (hp *hashPartition) value(off uint32) []byte {
	return hp.entry(off)[entryHdrSize : entryHdrSize+hp.vs]
}

// insert appends a new entry for key, whose hash is h, with a zeroed value
// and returns its offset (+1), or 0 when the entry does not fit the rest of
// the page.
func (hp *hashPartition) insert(h uint64, key []byte) uint32 {
	cur := binary.LittleEndian.Uint32(hp.cursor)
	n := entrySize(hp.vs, len(key))
	if int(cur)+n > len(hp.entries) {
		return 0
	}
	binary.LittleEndian.PutUint32(hp.cursor, cur+uint32(n))
	off := cur + 1
	e := hp.entry(off)
	b := uint32(h) & (hp.nb - 1)
	binary.LittleEndian.PutUint32(e[0:4], hp.bucketHead(b))
	binary.LittleEndian.PutUint32(e[4:8], uint32(len(key)))
	clear(e[entryHdrSize : entryHdrSize+hp.vs])
	copy(e[entryHdrSize+hp.vs:], key)
	hp.setBucketHead(b, off)
	return off
}

// walk calls fn for every (key, value) in the partition.
func (hp *hashPartition) walk(fn func(key, val []byte) error) error {
	for b := uint32(0); b < hp.nb; b++ {
		for off := hp.bucketHead(b); off != 0; {
			e := hp.entry(off)
			klen := binary.LittleEndian.Uint32(e[4:8])
			key := e[entryHdrSize+hp.vs : entryHdrSize+hp.vs+int(klen)]
			if err := fn(key, e[entryHdrSize:entryHdrSize+hp.vs]); err != nil {
				return err
			}
			off = binary.LittleEndian.Uint32(e[0:4])
		}
	}
	return nil
}

// CombineFunc merges a source value into a destination aggregate in place.
type CombineFunc func(dst, src []byte)

// VirtualHashBuffer is the hash service's user-facing handle: K root
// partitions indexed by key hash, each backed by page-local hash tables
// holding fixed-size values. Inserting into a full partition transparently
// splits a child partition onto a fresh page; under memory pressure older
// pages spill as partial aggregates and Result re-aggregates them.
type VirtualHashBuffer struct {
	set     *core.LocalitySet
	combine CombineFunc
	valSize int
	parts   []*hashPartition // active page per root partition
	k       uint64
	retires uint64 // pages retired so far
}

// NewVirtualHashBuffer attaches the hash service to a locality set with k
// root partitions and valSize-byte values. It stamps
// WritingPattern=random-mutable-write, ReadingPattern=random-read and
// CurrentOperation=read-and-write on the set (§3.2).
func NewVirtualHashBuffer(set *core.LocalitySet, k, valSize int, combine CombineFunc) (*VirtualHashBuffer, error) {
	if k < 1 {
		return nil, fmt.Errorf("services: hash buffer needs at least 1 partition, got %d", k)
	}
	if valSize < 1 {
		return nil, fmt.Errorf("services: hash buffer needs a positive value size, got %d", valSize)
	}
	if combine == nil {
		return nil, fmt.Errorf("services: hash buffer needs a combine function")
	}
	// A page must hold its header, the fewest buckets and one entry.
	if need := hashHdrSize + 4*hashMinBuckets + entrySize(valSize, 0); set.PageSize() < int64(need) {
		return nil, fmt.Errorf("services: hash page of %d bytes is under the minimum of %d for %d-byte values", set.PageSize(), need, valSize)
	}
	set.SetWriting(core.RandomMutableWrite)
	set.SetReading(core.RandomRead)
	set.SetCurrentOp(core.OpReadWrite)
	return &VirtualHashBuffer{
		set:     set,
		combine: combine,
		valSize: valSize,
		parts:   make([]*hashPartition, k),
		k:       uint64(k),
	}, nil
}

// Slot is the paper's find/insert/set flow in one call: it returns the
// key's valSize-byte value in its partition's active page for the caller to
// fold into in place, inserting a zeroed one (fresh=true) if the key is not
// there — it may still exist in a retired page; Result merges the partials.
// The slice aliases the pinned page and stays valid until the buffer retires
// a page (Retires moves) or closes: a full page is retired when a key that
// is not on it arrives.
func (h *VirtualHashBuffer) Slot(key []byte) (val []byte, fresh bool, err error) {
	// One hash serves both levels: its high half picks the root partition,
	// its low half the bucket within the partition's page.
	hash := fnv1a(key)
	r := (hash >> 32) % h.k
	if val, fresh := h.slotIn(r, hash, key); val != nil {
		return val, fresh, nil
	}
	if hp := h.parts[r]; hp != nil {
		// Page full: retire it (unpin dirty; it becomes a spill candidate)
		// and split a fresh child partition below.
		if err := h.set.Unpin(hp.page, true); err != nil {
			return nil, false, err
		}
		h.parts[r] = nil
		h.retires++
	}
	p, err := h.set.NewPage()
	if err != nil {
		return nil, false, err
	}
	hp := initHashPage(p, h.valSize)
	h.parts[r] = hp
	off := hp.insert(hash, key)
	if off == 0 {
		return nil, false, fmt.Errorf("services: key of %d bytes does not fit an empty hash page of %d bytes", len(key), h.set.PageSize())
	}
	return hp.value(off), true, nil
}

// SlotIn is Slot confined to the key's partition's active page, so that it
// never retires a page: nil when the key is not on that page and the page
// has no room for it, or the partition has no page yet.
func (h *VirtualHashBuffer) SlotIn(key []byte) (val []byte, fresh bool) {
	hash := fnv1a(key)
	return h.slotIn((hash>>32)%h.k, hash, key)
}

func (h *VirtualHashBuffer) slotIn(r, hash uint64, key []byte) (val []byte, fresh bool) {
	hp := h.parts[r]
	if hp == nil {
		return nil, false
	}
	if off := hp.find(hash, key); off != 0 {
		return hp.value(off), false
	}
	if off := hp.insert(hash, key); off != 0 {
		return hp.value(off), true
	}
	return nil, false
}

// Retires counts the pages the buffer has retired. A slot Slot or SlotIn
// returned is valid while the count stands still.
func (h *VirtualHashBuffer) Retires() uint64 { return h.retires }

// Close unpins all active pages. Call before Result.
func (h *VirtualHashBuffer) Close() error {
	var first error
	for i, hp := range h.parts {
		if hp == nil {
			continue
		}
		if err := h.set.Unpin(hp.page, true); err != nil && first == nil {
			first = err
		}
		h.parts[i] = nil
	}
	h.set.SetCurrentOp(core.OpNone)
	return first
}

// Result re-aggregates every hash page of the set — resident and spilled —
// into a single map: the final-stage merge the paper performs after all
// objects are inserted through the virtual hash buffer.
func (h *VirtualHashBuffer) Result() (map[string][]byte, error) {
	out := make(map[string][]byte)
	err := h.Walk(func(key, val []byte) error {
		k := string(key)
		if old, ok := out[k]; ok {
			h.combine(old, val)
		} else {
			out[k] = append([]byte(nil), val...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Walk streams every (key, partial-value) pair across all hash pages of the
// set in page order. Values with the same key may appear several times
// (once per partial); use Result for fully merged values.
func (h *VirtualHashBuffer) Walk(fn func(key, val []byte) error) error {
	n := h.set.NumPages()
	for num := int64(0); num < n; num++ {
		p, err := h.set.Pin(num)
		if err != nil {
			return fmt.Errorf("services: re-aggregate page %d: %w", num, err)
		}
		hp := openHashPage(p)
		werr := hp.walk(fn)
		if uerr := h.set.Unpin(p, false); werr == nil {
			werr = uerr
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// Int64HashBuffer aggregates <key, int64> pairs — the shape of the paper's
// key-value aggregation micro-benchmark (Table 4) and of counting
// aggregations generally.
type Int64HashBuffer struct {
	h       *VirtualHashBuffer
	combine func(old, new int64) int64
}

// Sum is the additive combiner.
func Sum(old, new int64) int64 { return old + new }

// NewInt64HashBuffer wraps the hash service for int64 values.
func NewInt64HashBuffer(set *core.LocalitySet, k int, combine func(old, new int64) int64) (*Int64HashBuffer, error) {
	if combine == nil {
		combine = Sum
	}
	byteCombine := func(dst, src []byte) {
		old := int64(binary.LittleEndian.Uint64(dst))
		new := int64(binary.LittleEndian.Uint64(src))
		binary.LittleEndian.PutUint64(dst, uint64(combine(old, new)))
	}
	h, err := NewVirtualHashBuffer(set, k, 8, byteCombine)
	if err != nil {
		return nil, err
	}
	return &Int64HashBuffer{h: h, combine: combine}, nil
}

// Upsert inserts or combines one pair, folding v into the key's slot in
// place.
func (b *Int64HashBuffer) Upsert(key []byte, v int64) error {
	slot, fresh, err := b.h.Slot(key)
	if err != nil {
		return err
	}
	if !fresh {
		v = b.combine(int64(binary.LittleEndian.Uint64(slot)), v)
	}
	binary.LittleEndian.PutUint64(slot, uint64(v))
	return nil
}

// Close unpins active pages.
func (b *Int64HashBuffer) Close() error { return b.h.Close() }

// Result merges all partials into a map.
func (b *Int64HashBuffer) Result() (map[string]int64, error) {
	raw, err := b.h.Result()
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(raw))
	for k, v := range raw {
		out[k] = int64(binary.LittleEndian.Uint64(v))
	}
	return out, nil
}
