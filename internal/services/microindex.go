package services

import (
	"fmt"
	"slices"

	"pangea/internal/core"
)

// Microindexes are per-set secondary indexes over designated columns: for
// each indexed column, a sorted map from column value to the list of pages
// holding at least one row with that value. Where a zone map is a
// conservative filter (a page it cannot exclude must still be visited), a
// microindex is authoritative — a covered lookup returns *every* page that
// may hold the value — so a point predicate gets an explicit candidate page
// list up front instead of testing every page's summary. On a non-clustered
// key column whose per-page blooms have saturated, that is the difference
// between visiting most of the set and visiting one page.
//
// They are one kind of side index (see sideindex.go for how they are built,
// persisted and healed). Authoritative semantics make coverage a
// correctness gate, not an optimization: the query layer consults a
// microindex only after Covers confirms every page of the set is described,
// and pages whose rows could not be parsed stay in every lookup result,
// because the index cannot vouch for what they hold.

// MicroindexTag is the pfs side-object name microindexes persist under.
const MicroindexTag = "midx"

// MicroindexSpec describes what a microindex covers: the fixed-width column
// schema (same shape rules as ZoneMapSpec), and which columns get posting
// lists. Indexed columns must have width 1/2/4/8 — an index over a payload
// blob has no value domain to key on.
type MicroindexSpec struct {
	Schema []ColumnSpec
	Cols   []int
}

var microindexKind = sideKind{name: "microindex", tag: MicroindexTag, magic: 0x58494D47} // "GMIX"

// Microindex holds the per-column postings of one locality set.
type Microindex struct {
	sideIndex
	postings []map[uint64][]int64 // parallel to cols; page lists ascending
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
	m.postings = make([]map[uint64][]int64, len(m.cols))
	for i := range m.postings {
		m.postings[i] = make(map[uint64][]int64)
	}
	return m, nil
}

// fold records that page num holds value v in indexed-column slot, keeping
// each posting list ascending and deduplicated.
func (m *Microindex) fold(_ []byte, num int64, _, slot int, v uint64, _ bool) {
	list := m.postings[slot][v]
	if n := len(list); n > 0 && list[n-1] >= num {
		if list[n-1] == num {
			return // sequential writers restate a page's last value often
		}
		// Out-of-order note (a re-sealed earlier page): insert sorted.
		if i, found := slices.BinarySearch(list, num); !found {
			m.postings[slot][v] = slices.Insert(list, i, num)
		}
		return
	}
	m.postings[slot][v] = append(list, num)
}

// LookupPages returns the ascending candidate pages that may hold value v
// in column col — the value's posting list plus every invalid page, in a
// fresh slice the caller owns — and ok=false when the column is not indexed.
// The query layer's query.PointIndex surface.
func (m *Microindex) LookupPages(col int, v uint64) ([]int64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	slot, ok := m.colPos[col]
	if !ok {
		return nil, false
	}
	list := m.postings[slot][v]
	out := make([]int64, 0, len(list)+len(m.invalid))
	i, j := 0, 0
	for i < len(list) && j < len(m.invalid) {
		switch {
		case list[i] < m.invalid[j]:
			out = append(out, list[i])
			i++
		case list[i] > m.invalid[j]:
			out = append(out, m.invalid[j])
			j++
		default:
			out = append(out, list[i])
			i++
			j++
		}
	}
	out = append(out, list[i:]...)
	return append(out, m.invalid[j:]...), true
}

// appendBody encodes each indexed column's postings sorted by value.
func (m *Microindex) appendBody(buf []byte) []byte {
	for _, post := range m.postings {
		vals := make([]uint64, 0, len(post))
		for v := range post {
			vals = append(vals, v)
		}
		slices.Sort(vals)
		buf = le.AppendUint64(buf, uint64(len(vals)))
		for _, v := range vals {
			list := post[v]
			buf = le.AppendUint64(buf, v)
			buf = le.AppendUint64(buf, uint64(len(list)))
			for _, num := range list {
				buf = le.AppendUint64(buf, uint64(num))
			}
		}
	}
	return buf
}

// decodeBody parses the postings: values strictly ascending per column,
// each list non-empty, strictly ascending, and naming only covered pages.
func (m *Microindex) decodeBody(data []byte) ([]byte, error) {
	get := func() uint64 {
		v := le.Uint64(data)
		data = data[8:]
		return v
	}
	for slot := range m.postings {
		if len(data) < 8 {
			return nil, fmt.Errorf("services: microindex postings truncated")
		}
		nvals := int(get())
		if nvals < 0 || nvals > len(data)/16 {
			return nil, fmt.Errorf("services: microindex claims %d values, %d bytes left", nvals, len(data))
		}
		var prevVal uint64
		for i := 0; i < nvals; i++ {
			if len(data) < 16 {
				return nil, fmt.Errorf("services: microindex postings truncated")
			}
			v := get()
			if i > 0 && v <= prevVal {
				return nil, fmt.Errorf("services: microindex values out of order")
			}
			prevVal = v
			nlist := int(get())
			if nlist <= 0 || nlist > len(data)/8 {
				return nil, fmt.Errorf("services: microindex claims %d postings, %d bytes left", nlist, len(data))
			}
			list := make([]int64, nlist)
			for j := range list {
				num := int64(get())
				if num < 0 || (j > 0 && num <= list[j-1]) {
					return nil, fmt.Errorf("services: microindex posting list malformed")
				}
				if m.pages[num] == nil {
					return nil, fmt.Errorf("services: microindex posting references uncovered page %d", num)
				}
				list[j] = num
			}
			m.postings[slot][v] = list
		}
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
