package services

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"pangea/internal/core"
)

// JoinMap is the join map service (§8): the build side of a hash join. Each
// record is a key plus a fixed-width payload — the build columns the plan
// reads, projected by the caller. Payloads live in buffer-pool pages of a
// locality set (record r in slot r%perPage of page r/perPage), so a large
// build side spills and reloads under the unified paging policy like any
// other set; the index — key → its latest record, record → the previous one
// under the same key — is in memory.
//
// The key index is flat, and holds no Go pointer. 8-byte keys, the common
// integer join key, go in a table of (key, latest record) pairs: a probe
// compares the key beside its slot and touches nothing else. Keys of any
// other length go in a table of int32 slots naming their bytes, which lie
// back to back in one slice. Both are open-addressing tables probed
// linearly from the key's hash. The 8-byte table doubles at half load, and
// a filter of four bits a slot sits in front of it, so a miss — most probes
// of a semi or anti join — ends at one bit test or within a few slots; the
// other table doubles at ¾.
//
// Probing is two steps, so a batch of probes costs one pin per page it
// touches rather than one per match: Head/Next walk a key's records without
// touching a page, and Gather then copies the payloads of all the collected
// records out, page by page.
type JoinMap struct {
	set     *core.LocalitySet
	width   int
	perPage int
	words   []wordSlot // 8-byte keys' table
	wordN   int        // distinct 8-byte keys
	filter  []uint64   // 8-byte keys' filter: four bits a slot, one set per key
	slots   []int32    // other keys' table: 0 is empty, o+1 names other key o
	keys    []byte     // the other keys' bytes, back to back
	keyEnd  []int32    // per other key: where its bytes end in keys
	head    []int32    // per other key: its most recent record
	next    []int32    // per record: the previous record under its key, -1 ends the chain
	page    *core.Page // the page being filled
}

// wordSlot is one slot of the 8-byte keys' table: the key, and its most
// recent record +1 (0 is an empty slot).
type wordSlot struct {
	lo, hi uint32 // the key's halves: 12 bytes a slot, not 16
	head   int32
}

func (s *wordSlot) key() uint64 { return uint64(s.hi)<<32 | uint64(s.lo) }

// minSlotsLog is log2 of each key table's starting size.
const minSlotsLog = 4

// wordHash hashes an 8-byte key by one multiply by 2^64/φ, whose top bits
// mix every input bit; the top log2(slots) bits pick the first slot.
func wordHash(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 }

// first returns a hash's first slot in a power-of-two table of n slots.
func first(h uint64, n int) int { return int(h >> (64 - bits.TrailingZeros(uint(n)))) }

// filterBit returns an 8-byte key's bit in the filter, picked by the hash
// bits below those that pick its first slot: most keys that are not in the
// map are turned away by one test of a bit, before the table is touched.
func (m *JoinMap) filterBit(h uint64) (word int, bit uint64) {
	b := bits.TrailingZeros(uint(len(m.words)))
	f := h << b >> (62 - b) // the next b+2 bits: one of 4·len(words)
	return int(f >> 6), 1 << (f & 63)
}

// NewJoinMap attaches a join map with width-byte payloads to a locality
// set. The set's pages get random reads during probing, so the hash-service
// attribute tags apply. Width 0 keeps keys only (semi and anti joins) and
// never allocates a page.
func NewJoinMap(set *core.LocalitySet, width int) (*JoinMap, error) {
	if width < 0 || int64(width) > set.PageSize() {
		return nil, fmt.Errorf("services: join map payload of %d bytes invalid for %d-byte pages", width, set.PageSize())
	}
	set.SetWriting(core.RandomMutableWrite)
	set.SetReading(core.RandomRead)
	set.SetCurrentOp(core.OpReadWrite)
	m := &JoinMap{set: set, width: width, words: make([]wordSlot, 1<<minSlotsLog),
		filter: make([]uint64, 1<<minSlotsLog/16), slots: make([]int32, 1<<minSlotsLog)}
	if width > 0 {
		m.perPage = int(set.PageSize()) / width
	}
	return m, nil
}

// Len returns the number of records inserted.
func (m *JoinMap) Len() int { return len(m.next) }

// Keys returns the number of distinct keys.
func (m *JoinMap) Keys() int { return m.wordN + len(m.head) }

// Width returns the payload width in bytes.
func (m *JoinMap) Width() int { return m.width }

// Insert adds one (key, payload) record; payload must be Width bytes. Not
// safe for concurrent use: builders serialize.
func (m *JoinMap) Insert(key, payload []byte) error {
	if len(payload) != m.width {
		return fmt.Errorf("services: join map payload of %d bytes, map built for %d", len(payload), m.width)
	}
	rec := int32(len(m.next))
	if m.width > 0 {
		slot := int(rec) % m.perPage
		if slot == 0 {
			if err := m.releasePage(); err != nil {
				return err
			}
			p, err := m.set.NewPage()
			if err != nil {
				return err
			}
			m.page = p
		}
		copy(m.page.Bytes()[slot*m.width:], payload)
	}
	if len(key) == 8 {
		w := binary.LittleEndian.Uint64(key)
		s := &m.words[m.lookupWord(w)]
		m.next = append(m.next, s.head-1) // an empty slot's -1 ends the chain
		if s.head == 0 {
			s.lo, s.hi = uint32(w), uint32(w>>32)
			m.wordN++
			f, bit := m.filterBit(wordHash(w))
			m.filter[f] |= bit
		}
		s.head = rec + 1
		if 2*m.wordN > len(m.words) {
			m.growWords()
		}
		return nil
	}
	o, slot := m.lookup(key)
	if o >= 0 {
		m.next = append(m.next, m.head[o])
		m.head[o] = rec
		return nil
	}
	m.next = append(m.next, -1)
	m.head = append(m.head, rec)
	m.slots[slot] = int32(len(m.head))
	m.keys = append(m.keys, key...)
	m.keyEnd = append(m.keyEnd, int32(len(m.keys)))
	if 4*len(m.head) > 3*len(m.slots) {
		m.grow()
	}
	return nil
}

// lookupWord returns an 8-byte key's slot, or the empty slot where it would
// go.
func (m *JoinMap) lookupWord(key uint64) int {
	mask := len(m.words) - 1
	for i := first(wordHash(key), len(m.words)); ; i = (i + 1) & mask {
		if s := &m.words[i]; s.head == 0 || s.key() == key {
			return i
		}
	}
}

// growWords doubles the 8-byte keys' table and re-places every key.
func (m *JoinMap) growWords() {
	old := m.words
	m.words, m.filter = make([]wordSlot, 2*len(old)), make([]uint64, len(old)/8)
	mask := len(m.words) - 1
	for _, s := range old {
		if s.head == 0 {
			continue
		}
		h := wordHash(s.key())
		f, bit := m.filterBit(h)
		m.filter[f] |= bit
		i := first(h, len(m.words))
		for m.words[i].head != 0 {
			i = (i + 1) & mask
		}
		m.words[i] = s
	}
}

// key returns other key o's bytes.
func (m *JoinMap) key(o int32) []byte {
	start := int32(0)
	if o > 0 {
		start = m.keyEnd[o-1]
	}
	return m.keys[start:m.keyEnd[o]]
}

// lookup returns a key (not 8 bytes long) 's index among the other keys and
// its slot, or -1 and the empty slot where it would go.
func (m *JoinMap) lookup(key []byte) (o int32, slot int) {
	mask := len(m.slots) - 1
	for i := first(fnv1a(key), len(m.slots)); ; i = (i + 1) & mask {
		s := m.slots[i]
		if s == 0 {
			return -1, i
		}
		if string(m.key(s-1)) == string(key) {
			return s - 1, i
		}
	}
}

// grow doubles the other keys' table and re-places every key.
func (m *JoinMap) grow() {
	m.slots = make([]int32, 2*len(m.slots))
	mask := len(m.slots) - 1
	for o := range int32(len(m.head)) {
		i := first(fnv1a(m.key(o)), len(m.slots))
		for m.slots[i] != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = o + 1
	}
}

func (m *JoinMap) releasePage() error {
	if m.page == nil {
		return nil
	}
	p := m.page
	m.page = nil
	return m.set.Unpin(p, true)
}

// Seal finishes building: the current page is unpinned and the map becomes
// probe-only, after which any number of threads may probe at once.
func (m *JoinMap) Seal() error {
	err := m.releasePage()
	m.set.SetCurrentOp(core.OpRead)
	return err
}

// Head returns the most recent record stored under key, or -1.
func (m *JoinMap) Head(key []byte) int32 {
	if len(key) == 8 {
		return m.HeadWord(binary.LittleEndian.Uint64(key))
	}
	if o, _ := m.lookup(key); o >= 0 {
		return m.head[o]
	}
	return -1
}

// HeadWord is Head for an 8-byte key, given as its little-endian value.
func (m *JoinMap) HeadWord(key uint64) int32 {
	h := wordHash(key)
	if w, bit := m.filterBit(h); m.filter[w]&bit == 0 {
		return -1
	}
	mask := len(m.words) - 1
	for i := first(h, len(m.words)); ; i = (i + 1) & mask {
		// An empty slot reads as key 0 with no record: a miss either way.
		if s := &m.words[i]; s.key() == key || s.head == 0 {
			return s.head - 1
		}
	}
}

// Next returns the record inserted before rec under the same key, or -1.
func (m *JoinMap) Next(rec int32) int32 { return m.next[rec] }

// GatherScratch is Gather's reusable working memory, one per probing
// thread; the zero value is ready.
type GatherScratch struct{ starts, order []int32 }

// Gather copies the payloads of recs into dst (resized to len(recs)*Width,
// payload k at dst[k*Width:]) and returns it. The records are visited in
// page order — a counting sort over their hosting pages — so each page is
// pinned once and only one is pinned at a time, however the records are
// scattered.
func (m *JoinMap) Gather(recs []int32, dst []byte, gs *GatherScratch) ([]byte, error) {
	w := m.width
	if n := len(recs) * w; cap(dst) < n {
		dst = make([]byte, n)
	} else {
		dst = dst[:n]
	}
	if len(dst) == 0 {
		return dst, nil
	}
	pages := (len(m.next) + m.perPage - 1) / m.perPage
	gs.starts = growInt32(gs.starts, pages+1)
	gs.order = growInt32(gs.order, len(recs))
	starts, order := gs.starts, gs.order
	clear(starts)
	for _, r := range recs {
		starts[int(r)/m.perPage+1]++
	}
	for p := 1; p <= pages; p++ {
		starts[p] += starts[p-1]
	}
	for k, r := range recs {
		p := int(r) / m.perPage
		order[starts[p]] = int32(k)
		starts[p]++
	}
	// starts[p] is now the end of page p's run in order.
	lo := int32(0)
	for p := 0; p < pages; p++ {
		hi := starts[p]
		if hi == lo {
			continue
		}
		pg, err := m.set.Pin(int64(p))
		if err != nil {
			return dst, fmt.Errorf("services: join map page %d: %w", p, err)
		}
		buf := pg.Bytes()
		for _, k := range order[lo:hi] {
			slot := int(recs[k]) % m.perPage
			copy(dst[int(k)*w:int(k)*w+w], buf[slot*w:])
		}
		if err := m.set.Unpin(pg, false); err != nil {
			return dst, err
		}
		lo = hi
	}
	return dst, nil
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
