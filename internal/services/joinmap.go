package services

import (
	"encoding/binary"
	"fmt"

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
// The key index is flat: an open-addressing table of int32 slots, probed
// linearly from the key's hash, each full slot naming a distinct key, and
// the distinct keys' bytes back to back in one slice. It holds no Go
// pointer, and it doubles at ¾ load.
//
// Probing is two steps, so a batch of probes costs one pin per page it
// touches rather than one per match: Head/Next walk a key's records without
// touching a page, and Gather then copies the payloads of all the collected
// records out, page by page.
type JoinMap struct {
	set     *core.LocalitySet
	width   int
	perPage int
	slots   []int32    // power-of-two table: 0 is empty, k+1 names distinct key k
	shift   uint       // 64 − log2(len(slots)): a hash's top bits pick its first slot
	keys    []byte     // the distinct keys' bytes, back to back
	keyEnd  []int32    // per distinct key: where its bytes end in keys
	head    []int32    // per distinct key: its most recent record
	next    []int32    // per record: the previous record under its key, -1 ends the chain
	page    *core.Page // the page being filled
}

// minSlotsLog is log2 of the key table's starting size.
const minSlotsLog = 4

// joinHash hashes a key for the slot table: an 8-byte key, the common
// integer join key, by one multiply by 2^64/φ, whose top bits mix every
// input bit; other lengths by fnv1a.
func joinHash(key []byte) uint64 {
	if len(key) == 8 {
		return binary.LittleEndian.Uint64(key) * 0x9E3779B97F4A7C15
	}
	return fnv1a(key)
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
	m := &JoinMap{set: set, width: width, slots: make([]int32, 1<<minSlotsLog), shift: 64 - minSlotsLog}
	if width > 0 {
		m.perPage = int(set.PageSize()) / width
	}
	return m, nil
}

// Len returns the number of records inserted.
func (m *JoinMap) Len() int { return len(m.next) }

// Keys returns the number of distinct keys.
func (m *JoinMap) Keys() int { return len(m.head) }

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
	k, slot := m.lookup(key)
	if k >= 0 {
		m.next = append(m.next, m.head[k])
		m.head[k] = rec
		return nil
	}
	m.slots[slot] = int32(len(m.head)) + 1
	m.keys = append(m.keys, key...)
	m.keyEnd = append(m.keyEnd, int32(len(m.keys)))
	m.next = append(m.next, -1)
	m.head = append(m.head, rec)
	if 4*len(m.head) > 3*len(m.slots) {
		m.grow()
	}
	return nil
}

// key returns distinct key k's bytes.
func (m *JoinMap) key(k int32) []byte {
	start := int32(0)
	if k > 0 {
		start = m.keyEnd[k-1]
	}
	return m.keys[start:m.keyEnd[k]]
}

// lookup returns key's index among the distinct keys and its slot, or -1
// and the empty slot where it would go.
func (m *JoinMap) lookup(key []byte) (k int32, slot int) {
	mask := len(m.slots) - 1
	for i := int(joinHash(key) >> m.shift); ; i = (i + 1) & mask {
		s := m.slots[i]
		if s == 0 {
			return -1, i
		}
		if m.keyIs(s-1, key) {
			return s - 1, i
		}
	}
}

// keyIs reports whether distinct key k is key: an 8-byte key by one word
// compare, which a call into the runtime's byte compare costs several times.
func (m *JoinMap) keyIs(k int32, key []byte) bool {
	kb := m.key(k)
	if len(kb) != len(key) {
		return false
	}
	if len(key) == 8 {
		return binary.LittleEndian.Uint64(kb) == binary.LittleEndian.Uint64(key)
	}
	return string(kb) == string(key)
}

// grow doubles the slot table and re-places every distinct key.
func (m *JoinMap) grow() {
	m.slots = make([]int32, 2*len(m.slots))
	m.shift--
	mask := len(m.slots) - 1
	for k := range int32(len(m.head)) {
		i := int(joinHash(m.key(k)) >> m.shift)
		for m.slots[i] != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = k + 1
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
	if k, _ := m.lookup(key); k >= 0 {
		return m.head[k]
	}
	return -1
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
