package services

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pangea/internal/core"
)

// Microindexes are per-set secondary indexes over designated columns: for
// each indexed column, every row's (value, location) pair in value order,
// where a location is page<<32 | lane and a lane is the record's index on its
// page. Where a zone map is a conservative filter (a page it cannot exclude
// must still be visited), a microindex is authoritative — a covered lookup
// returns *every* row that may hold the value — so a point predicate gets its
// candidate pages, and the rows to test on each, up front. On a non-clustered
// key column whose per-page blooms have saturated, that is the difference
// between visiting most of the set and testing one row.
//
// They are one kind of side index (see sideindex.go for how they are built,
// persisted and healed). Authoritative semantics make coverage a
// correctness gate, not an optimization: the query layer consults a
// microindex only after Covers confirms every page of the set is described,
// and pages whose rows could not be parsed stay in every lookup result,
// whole, because the index cannot vouch for what they hold.

// MicroindexTag is the pfs side-object name microindexes persist under.
const MicroindexTag = "midx"

// LaneAll is the lane of a location that stands for every row of its page:
// a lookup names each invalid page once, with it.
const LaneAll = math.MaxUint32

// MicroindexSpec describes what a microindex covers: the fixed-width column
// schema (same shape rules as ZoneMapSpec), and which columns get posting
// lists. Indexed columns must have width 1/2/4/8 — an index over a payload
// blob has no value domain to key on.
type MicroindexSpec struct {
	Schema []ColumnSpec
	Cols   []int
}

var microindexKind = sideKind{name: "microindex", tag: MicroindexTag, magic: 0x58494D47, version: 2} // "GMIX"

// posting is one row of one indexed column.
type posting struct{ v, loc uint64 }

func comparePostings(a, b posting) int {
	return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.loc, b.loc))
}

// digit returns byte d of the pair's sort key, least significant first:
// the location's bytes are digits 0-7, the value's 8-15.
func (p posting) digit(d uint) uint64 {
	w := p.loc
	if d >= 8 {
		w = p.v
	}
	return w >> (8 * (d % 8)) & 0xff
}

// Notes land in a tail of chunkPairs-long chunks, which grows without
// copying and is the radix sort's second buffer.
const chunkPairs = 1 << 12

// postings is one indexed column: the sorted body lookups read, and the
// notes folded since the last seal, in arrival order.
type postings struct {
	body []posting   // ordered by (value, loc), no repeats
	tail [][]posting // full chunks, the last one possibly short
}

// Microindex holds the per-column postings of one locality set.
type Microindex struct {
	sideIndex
	post []postings // parallel to cols
}

// NewMicroindex builds an empty microindex for the given spec.
func NewMicroindex(spec MicroindexSpec) (*Microindex, error) {
	if len(spec.Cols) == 0 {
		return nil, fmt.Errorf("services: microindex needs at least one indexed column")
	}
	// Postings persist in ascending column order whatever order the spec
	// names the columns in.
	cols := slices.Clone(spec.Cols)
	slices.Sort(cols)
	m := &Microindex{}
	if err := m.init(&microindexKind, m, spec.Schema, cols); err != nil {
		return nil, err
	}
	m.post = make([]postings, len(m.cols))
	return m, nil
}

// fold appends the row at loc holding v to indexed-column slot's tail.
func (m *Microindex) fold(_ []byte, loc uint64, _, slot int, v uint64, _ bool) {
	p := &m.post[slot]
	if n := len(p.tail); n == 0 || len(p.tail[n-1]) == chunkPairs {
		p.tail = append(p.tail, make([]posting, 0, chunkPairs))
	}
	p.tail[len(p.tail)-1] = append(p.tail[len(p.tail)-1], posting{v, loc})
}

// seal puts every column's tail in order and into its body: one radix sort
// of the tail, a merge with the body, and repeated pairs dropped (a second
// note of a page, such as a columnar page sealed again, restates its rows).
func (m *Microindex) seal() {
	for i := range m.post {
		p := &m.post[i]
		if len(p.tail) == 0 {
			continue
		}
		sorted := radixSort(p.tail)
		if len(p.body) > 0 {
			sorted = mergePostings(p.body, sorted)
		}
		p.body, p.tail = slices.Compact(sorted), nil
	}
}

// mergePostings merges two ordered runs into a new one.
func mergePostings(a, b []posting) []posting {
	out := make([]posting, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if comparePostings(a[0], b[0]) <= 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// radixSort returns the tail's pairs ordered by (value, loc) in one new
// slice: an LSD radix sort, a digit a pass, that skips every digit all the
// pairs share. When the locations already ascend — a sequential writer notes
// rows in page order — it skips the location's digits as well, since each
// pass is stable. Passes alternate between the new slice and the tail.
func radixSort(tail [][]posting) []posting {
	first, prev := tail[0][0], tail[0][0]
	var diff posting // the bits in which some pair differs from the first
	n, locsAscend := 0, true
	for _, c := range tail {
		n += len(c)
		for _, p := range c {
			diff.v |= p.v ^ first.v
			diff.loc |= p.loc ^ first.loc
			locsAscend = locsAscend && p.loc >= prev.loc
			prev = p
		}
	}
	out := make([]posting, n)
	var outChunks [][]posting
	for i := 0; i < n; i += chunkPairs {
		outChunks = append(outChunks, out[i:min(i+chunkPairs, n)])
	}
	src, dst, passes := tail, outChunks, 0
	for d := uint(0); d < 16; d++ {
		if diff.digit(d) == 0 || (d < 8 && locsAscend) {
			continue
		}
		var count [256]int
		for _, c := range src {
			for _, p := range c {
				count[p.digit(d)]++
			}
		}
		sum := 0
		for b, c := range count {
			count[b], sum = sum, sum+c
		}
		for _, c := range src {
			for _, p := range c {
				b := p.digit(d)
				dst[count[b]/chunkPairs][count[b]%chunkPairs] = p
				count[b]++
			}
		}
		src, dst, passes = dst, src, passes+1
	}
	if passes%2 == 0 {
		// An even number of passes, or none, leaves the pairs in the tail.
		i := 0
		for _, c := range tail {
			i += copy(out[i:], c)
		}
	}
	return out
}

// Lookup returns the rows that may hold value v in column col as ascending
// locations in a fresh slice, sealing first if need be: the value's rows on
// valid pages, and every invalid page once, with lane LaneAll. ok=false when
// the column is not indexed, or when an invalid page's number is past what a
// location can name. The query layer's query.PointIndex surface.
func (m *Microindex) Lookup(col int, v uint64) ([]uint64, bool) {
	slot, ok := m.colPos[col]
	if !ok {
		return nil, false
	}
	m.mu.RLock()
	if len(m.post[slot].tail) > 0 {
		m.mu.RUnlock()
		m.lockedSeal()
		m.mu.RLock()
	}
	defer m.mu.RUnlock()
	inv := m.invalid
	if len(inv) > 0 && inv[len(inv)-1] > math.MaxUint32 {
		return nil, false
	}
	body := m.post[slot].body
	i, _ := slices.BinarySearchFunc(body, v, func(p posting, v uint64) int { return cmp.Compare(p.v, v) })
	j := i
	for j < len(body) && body[j].v == v {
		j++
	}
	out := make([]uint64, 0, j-i+len(inv))
	for _, p := range body[i:j] {
		page := int64(p.loc >> 32)
		for len(inv) > 0 && inv[0] < page {
			out = append(out, uint64(inv[0])<<32|LaneAll)
			inv = inv[1:]
		}
		if len(inv) == 0 || inv[0] != page {
			out = append(out, p.loc)
		}
	}
	for _, num := range inv {
		out = append(out, uint64(num)<<32|LaneAll)
	}
	return out, true
}

// appendBody encodes each indexed column's body: its pair count, then the
// pairs, value and location each a u64.
func (m *Microindex) appendBody(buf []byte) []byte {
	for _, p := range m.post {
		buf = le.AppendUint64(buf, uint64(len(p.body)))
		for _, q := range p.body {
			buf = le.AppendUint64(le.AppendUint64(buf, q.v), q.loc)
		}
	}
	return buf
}

// decodeBody copies each column's pairs, checking that they strictly
// ascend, that every page they name is covered, and that every lane is
// below its page's row count.
func (m *Microindex) decodeBody(data []byte) ([]byte, error) {
	for slot := range m.post {
		if len(data) < 8 {
			return nil, fmt.Errorf("services: microindex postings truncated")
		}
		n := le.Uint64(data)
		data = data[8:]
		if n > uint64(len(data)/16) {
			return nil, fmt.Errorf("services: microindex claims %d postings, %d bytes left", n, len(data))
		}
		body := make([]posting, n)
		for i := range body {
			q := posting{le.Uint64(data[16*i:]), le.Uint64(data[16*i+8:])}
			if i > 0 && comparePostings(body[i-1], q) >= 0 {
				return nil, fmt.Errorf("services: microindex postings out of order")
			}
			num, lane := int64(q.loc>>32), int64(uint32(q.loc))
			if p := m.pages[num]; p == nil || lane >= p.rows || !fitsLoc(num, lane) {
				return nil, fmt.Errorf("services: microindex posting names lane %d of page %d, which is not covered or holds fewer rows", lane, num)
			}
			body[i] = q
		}
		m.post[slot].body = body
		data = data[16*n:]
	}
	return data, nil
}

// LoadMicroindex parses a serialized microindex and verifies it was built
// for spec.
func LoadMicroindex(data []byte, spec MicroindexSpec) (*Microindex, error) {
	m, err := NewMicroindex(spec)
	if err == nil {
		err = m.unmarshal(data)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// AttachMicroindex wires incremental index maintenance into a sequential
// writer and registers the index on the writer's set (see
// attachSideIndex).
func AttachMicroindex(w *SeqWriter, spec MicroindexSpec) (*Microindex, error) {
	m, err := NewMicroindex(spec)
	if err == nil {
		err = attachSideIndex(w, m)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// EnsureMicroindex returns a usable microindex for the set — attached,
// loaded from the persisted side object, or rebuilt (see ensureSideIndex).
func EnsureMicroindex(set *core.LocalitySet, spec MicroindexSpec) (*Microindex, error) {
	return ensureSideIndex(set, func() (*Microindex, error) { return NewMicroindex(spec) })
}
