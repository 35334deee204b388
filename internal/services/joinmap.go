package services

import (
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
// The key index is flat, and holds no Go pointer. A key is an 8-byte word —
// an integer join key, or any column of at most 8 bytes zero-extended — and
// the index is an open-addressing table of (key, latest record) pairs,
// probed linearly from the key's hash: a probe compares the key beside its
// slot and touches nothing else. The table doubles at half load, and a
// filter of four bits a slot sits in front of it, so a miss — most probes
// of a semi or anti join — ends at one bit test or a short probe run.
//
// Probing is two steps, so a batch of probes costs one pin per page it
// touches rather than one per match: Head/Next walk a key's records without
// touching a page, and Gather then copies the payloads of all the collected
// records out, page by page.
type JoinMap struct {
	set     *core.LocalitySet
	width   int
	perPage int
	words   []wordSlot // the key table
	wordN   int        // distinct keys
	filter  []uint64   // four bits a slot, one set per key
	next    []int32    // per record: the previous record under its key, -1 ends the chain
	page    *core.Page // the page being filled
}

// wordSlot is one slot of the key table: the key, and its most recent
// record +1 (0 is an empty slot).
type wordSlot struct {
	lo, hi uint32 // the key's halves: 12 bytes a slot, not 16
	head   int32
}

func (s *wordSlot) key() uint64 { return uint64(s.hi)<<32 | uint64(s.lo) }

// minSlotsLog is log2 of the key table's starting size.
const minSlotsLog = 4

// wordHash hashes a key by one multiply by 2^64/φ, whose top bits mix every
// input bit; its top log2(table size) bits pick the first slot.
func wordHash(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 }

// first returns a hash's first slot in a power-of-two table of size n.
func first(h uint64, n int) int { return int(h >> (64 - bits.TrailingZeros(uint(n)))) }

// filterBit returns a key's bit in the filter, picked by the hash bits below
// those that pick its first slot: most keys that are not in the map are
// turned away by one test of a bit, before the table is touched.
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
		filter: make([]uint64, 1<<minSlotsLog/16)}
	if width > 0 {
		m.perPage = int(set.PageSize()) / width
	}
	return m, nil
}

// Len returns the number of records inserted.
func (m *JoinMap) Len() int { return len(m.next) }

// Keys returns the number of distinct keys.
func (m *JoinMap) Keys() int { return m.wordN }

// Width returns the payload width in bytes.
func (m *JoinMap) Width() int { return m.width }

// Insert adds one (key, payload) record; payload must be Width bytes. Not
// safe for concurrent use: builders serialize.
func (m *JoinMap) Insert(key uint64, payload []byte) error {
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
	s := &m.words[m.lookupWord(key)]
	m.next = append(m.next, s.head-1) // an empty slot's -1 ends the chain
	if s.head == 0 {
		s.lo, s.hi = uint32(key), uint32(key>>32)
		m.wordN++
		f, bit := m.filterBit(wordHash(key))
		m.filter[f] |= bit
	}
	s.head = rec + 1
	if 2*m.wordN > len(m.words) {
		m.growWords()
	}
	return nil
}

// lookupWord returns a key's slot, or the empty slot where it would go.
func (m *JoinMap) lookupWord(key uint64) int {
	mask := len(m.words) - 1
	for i := first(wordHash(key), len(m.words)); ; i = (i + 1) & mask {
		if s := &m.words[i]; s.head == 0 || s.key() == key {
			return i
		}
	}
}

// growWords doubles the key table and re-places every key.
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

func (m *JoinMap) releasePage() error {
	if m.page == nil {
		return nil
	}
	p := m.page
	m.page = nil
	return m.set.Unpin(p, true)
}

// Seal finishes building: the current page is shrunk to the payloads on it
// (core.LocalitySet.Shrink) and unpinned, and the map becomes probe-only,
// after which any number of threads may probe at once.
func (m *JoinMap) Seal() error {
	if m.page != nil { // a page is open only for payloads, so perPage > 0
		if used := len(m.next) % m.perPage; used > 0 {
			m.set.Shrink(m.page, int64(used*m.width))
		}
	}
	err := m.releasePage()
	m.set.SetCurrentOp(core.OpRead)
	return err
}

// Head returns the most recent record stored under key, or -1.
func (m *JoinMap) Head(key uint64) int32 {
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
