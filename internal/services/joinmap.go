package services

import (
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
// Probing is two steps, so a batch of probes costs one pin per page it
// touches rather than one per match: Head/Next walk a key's records without
// touching a page, and Gather then copies the payloads of all the collected
// records out, page by page.
type JoinMap struct {
	set     *core.LocalitySet
	width   int
	perPage int
	keys    map[string]int32 // key → index into head
	head    []int32          // per distinct key: its most recent record
	next    []int32          // per record: the previous record under its key, -1 ends the chain
	page    *core.Page       // the page being filled
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
	m := &JoinMap{set: set, width: width, keys: make(map[string]int32)}
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
	// The map read does not allocate; only a key's first record copies it.
	if k, ok := m.keys[string(key)]; ok {
		m.next = append(m.next, m.head[k])
		m.head[k] = rec
	} else {
		m.keys[string(key)] = int32(len(m.head))
		m.next = append(m.next, -1)
		m.head = append(m.head, rec)
	}
	return nil
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
	if k, ok := m.keys[string(key)]; ok {
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
