package services

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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

// postings is one indexed column: the sorted body lookups read, and the
// pages folded since the last seal, each as its rows' values in lane order.
type postings struct {
	body []posting // ordered by (value, loc), no repeats
	tail [][]uint64
	nums []int64 // the page of each tail run
	diff uint64  // the bits in which some tail value differs from the first
	n    int     // tail values
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

// fold appends page num's values of indexed column f to its tail.
func (m *Microindex) fold(_ []byte, num int64, f foldCol, vals []uint64) {
	p := &m.post[f.slot]
	p.tail, p.nums, p.n = append(p.tail, slices.Clone(vals)), append(p.nums, num), p.n+len(vals)
	diff, first := p.diff, p.tail[0][0]
	for _, v := range vals {
		diff |= v ^ first
	}
	p.diff = diff
}

// seal puts every column's tail in order and into its body: one sort of the
// tail, then, in the rare case that an earlier seal left a body, a sort of
// both that drops repeated pairs (a page noted again restates its rows).
func (m *Microindex) seal() {
	for i := range m.post {
		p := &m.post[i]
		if len(p.tail) == 0 {
			continue
		}
		sorted := sortPostings(p.tail, p.nums, p.n, p.diff)
		if len(p.body) > 0 {
			sorted = append(sorted, p.body...)
			slices.SortFunc(sorted, comparePostings)
			sorted = slices.Compact(sorted)
		}
		p.body, p.tail, p.nums, p.diff, p.n = sorted, nil, nil, 0, 0
	}
}

// bucketPairs is about how many postings a bucket of the seal's sort holds:
// few enough for a bucket and its scratch copy to stay in cache.
const bucketPairs = 1 << 14

// sortPostings returns the n postings of a tail — run i holds page nums[i]'s
// values at lanes 0, 1, … — ordered by (value, loc), in one new slice. diff
// holds the bits in which the values vary. The runs are taken in page order,
// so the locations ascend, and a page noted twice counts by its last fold
// (only direct callers note so; writers and rebuilds note each page once, in
// order). One MSD scatter on the top varying bits moves the postings into
// buckets of about bucketPairs, and LSD passes sort each bucket in cache on
// the varying bits below. Every pass is stable, so none sorts on locations.
func sortPostings(tail [][]uint64, nums []int64, n int, diff uint64) []posting {
	order := make([]int, len(tail))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return cmp.Or(cmp.Compare(nums[i], nums[j]), cmp.Compare(j, i)) })
	order = slices.CompactFunc(order, func(i, j int) bool { return nums[i] == nums[j] })
	lo, hi := bits.TrailingZeros64(diff), 64-bits.LeadingZeros64(diff)
	b := min(bits.Len(uint(n/bucketPairs)), max(hi-lo, 0))
	shift, mask := uint(hi-b)&63, uint64(1)<<b-1
	next := make([]int, mask+1) // each bucket's size, then its start, then its end
	for _, i := range order {
		for _, v := range tail[i] {
			next[v>>shift&mask]++
		}
	}
	start, biggest := 0, slices.Max(next)
	for d, size := range next {
		next[d], start = start, start+size
	}
	out := make([]posting, start)
	for _, i := range order {
		base := uint64(nums[i]) << 32
		for lane, v := range tail[i] {
			d := v >> shift & mask
			out[next[d]] = posting{v, base | uint64(lane)}
			next[d]++
		}
	}
	scratch, count, start := make([]posting, biggest), make([]int, 1<<maxDigit(biggest)), 0
	for _, end := range next {
		lsdSort(out[start:end], scratch, count, lo, hi-b)
		start = end
	}
	return out
}

// maxDigit is the widest digit an LSD pass over n postings takes: about
// log2(n) bits, so the counters cost no more than the postings they place,
// but at least a byte and at most 16 bits.
func maxDigit(n int) int {
	return min(max(bits.Len(uint(n)), 8), 16)
}

// lsdSort sorts a by the value's bits from lo up to top in stable passes
// between a and scratch, counting in count (at least 1<<maxDigit(len(a))
// long). The bits split into as few digits of at most maxDigit(len(a)) bits
// as they can, of equal width, so a bucket of about bucketPairs postings whose
// values vary in 14 bits takes one pass, not two byte passes; a digit all of
// a shares costs no pass.
func lsdSort(a, scratch []posting, count []int, lo, top int) {
	if len(a) < 2 || top <= lo {
		return
	}
	digit := maxDigit(len(a))
	passes := (top - lo + digit - 1) / digit
	width := (top - lo + passes - 1) / passes
	count = count[:1<<width]
	mask := uint64(len(count) - 1)
	src, dst := a, scratch[:len(a)]
	for d := lo; d < top; d += width {
		clear(count)
		for _, p := range src {
			count[p.v>>d&mask]++
		}
		if count[src[0].v>>d&mask] == len(src) {
			continue
		}
		sum := 0
		for k, c := range count {
			count[k], sum = sum, sum+c
		}
		for _, p := range src {
			k := p.v >> d & mask
			dst[count[k]] = p
			count[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
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
			if p := m.pages[num]; p == nil || lane >= p.rows || lane > math.MaxInt32 {
				return nil, fmt.Errorf("services: microindex posting names lane %d of page %d, which is not covered or holds fewer rows", lane, num)
			}
			body[i] = q
		}
		m.post[slot].body = body
		data = data[16*n:]
	}
	return data, nil
}

// AttachMicroindex wires page-at-a-time index maintenance into a sequential
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
