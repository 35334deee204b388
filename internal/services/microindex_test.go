package services

import (
	"encoding/binary"
	"testing"

	"pangea/internal/core"
)

// miSpec indexes the tag column (col 1) of the shared colRec shape.
func miSpec() MicroindexSpec {
	return MicroindexSpec{Schema: zmSchema(), Cols: []int{1}}
}

// miTruth rescans the set and returns, per tag value, the exact set of
// pages holding at least one row with that value.
func miTruth(t *testing.T, set *core.LocalitySet) map[uint64]map[int64]bool {
	t.Helper()
	truth := make(map[uint64]map[int64]bool)
	for _, num := range set.PageNums() {
		p, err := set.Pin(num)
		if err != nil {
			t.Fatal(err)
		}
		err = WalkPage(p.Bytes(), func(rec []byte) error {
			v := uint64(binary.LittleEndian.Uint16(rec[4:6]))
			if truth[v] == nil {
				truth[v] = make(map[int64]bool)
			}
			truth[v][num] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	return truth
}

// miCheckExact verifies the index's lookups against a rescan of the set's
// actual bytes: for every present value the posting list is exactly the
// pages holding it, and absent in-domain values return no candidates. The
// index is authoritative, so this is equality, not containment.
func miCheckExact(t *testing.T, set *core.LocalitySet, m *Microindex) {
	t.Helper()
	truth := miTruth(t, set)
	for v := uint64(0); v < 256; v++ {
		pages, ok := m.LookupPages(1, v)
		if !ok {
			t.Fatalf("indexed column did not answer value %d", v)
		}
		want := truth[v]
		if len(pages) != len(want) {
			t.Fatalf("value %d: lookup returned %d pages, set holds it on %d", v, len(pages), len(want))
		}
		for i, num := range pages {
			if !want[num] {
				t.Errorf("value %d: lookup includes page %d which does not hold it", v, num)
			}
			if i > 0 && pages[i-1] >= num {
				t.Errorf("value %d: lookup pages not ascending: %v", v, pages)
			}
		}
	}
	if _, ok := m.LookupPages(0, 1); ok {
		t.Error("unindexed column answered a lookup")
	}
}

// TestMicroindexIncrementalMatchesRebuild: the append-time index (row and
// columnar writer hooks alike) carries exact postings, identical to what a
// from-scratch rebuild of the same set derives.
func TestMicroindexIncrementalMatchesRebuild(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		name := map[bool]string{false: "row", true: "columnar"}[columnar]
		t.Run(name, func(t *testing.T) {
			bp := newPool(t, 1<<20)
			spec := core.SetSpec{Name: "s", PageSize: 512}
			if columnar {
				spec.Layout = core.LayoutColumnar
				spec.Columns = colWidths
			}
			set, err := bp.CreateSet(spec)
			if err != nil {
				t.Fatal(err)
			}
			w := NewSeqWriter(set)
			m, err := AttachMicroindex(w, miSpec())
			if err != nil {
				t.Fatal(err)
			}
			const n = 400
			for i := 0; i < n; i++ {
				if err := w.Add(colRec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !m.Covers(set.NumPages()) {
				t.Fatalf("index covers %d of %d pages", m.NumPages(), set.NumPages())
			}
			miCheckExact(t, set, m)

			// A rebuild from the pages derives the same postings.
			set.SetSideIndex(MicroindexTag, nil)
			rebuilt, err := EnsureMicroindex(set, miSpec())
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt == m {
				t.Fatal("EnsureMicroindex returned the detached index")
			}
			miCheckExact(t, set, rebuilt)
		})
	}
}

// TestMicroindexPersistRoundTrip: Marshal/Load round-trips every posting; a
// reshaped spec is rejected by the header check and healed by rebuild.
// (Stale, torn and unreadable objects: TestEnsureSideIndexHeals.)
func TestMicroindexPersistRoundTrip(t *testing.T) {
	bp := newPool(t, 1<<20)
	set := mkColSet(t, bp, "c", 512)
	w := NewSeqWriter(set)
	m, err := AttachMicroindex(w, miSpec())
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := w.Add(colRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(set); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadMicroindex(m.Marshal(), miSpec())
	if err != nil {
		t.Fatal(err)
	}
	miCheckExact(t, set, loaded)
	set.SetSideIndex(MicroindexTag, nil)
	ensured, err := EnsureMicroindex(set, miSpec())
	if err != nil {
		t.Fatal(err)
	}
	miCheckExact(t, set, ensured)

	// Reshaped spec: the persisted object no longer matches, Ensure rebuilds.
	set.SetSideIndex(MicroindexTag, nil)
	reshaped := MicroindexSpec{Schema: zmSchema(), Cols: []int{0}}
	if _, err := LoadMicroindex(m.Marshal(), reshaped); err == nil {
		t.Error("loading under a reshaped spec must error")
	}
	if _, err := EnsureMicroindex(set, reshaped); err != nil {
		t.Fatalf("Ensure under reshaped spec: %v", err)
	}
}

// TestMicroindexInvalidPagesAlwaysCandidates: a page the index could not
// parse (short record) stays covered but joins every lookup result — an
// authoritative index must never vouch for a page it could not read. The
// property survives a marshal/load round trip.
func TestMicroindexInvalidPagesAlwaysCandidates(t *testing.T) {
	m, err := NewMicroindex(miSpec())
	if err != nil {
		t.Fatal(err)
	}
	m.NoteAppend(0, colRec(1)) // tag 1%251 = 1
	m.NoteAppend(1, colRec(2))
	m.NoteAppend(1, []byte{9}) // short: page 1 unparseable
	m.NoteAppend(2, colRec(3))
	if !m.Covers(3) {
		t.Fatal("invalid page lost coverage")
	}
	for _, idx := range []*Microindex{m, mustReload(t, m)} {
		pages, ok := idx.LookupPages(1, 1)
		if !ok || len(pages) != 2 || pages[0] != 0 || pages[1] != 1 {
			t.Fatalf("lookup(tag=1) = %v ok=%v, want [0 1] (hit page + invalid page)", pages, ok)
		}
		// Even a value nothing holds must surface the invalid page.
		pages, _ = idx.LookupPages(1, 200)
		if len(pages) != 1 || pages[0] != 1 {
			t.Fatalf("lookup(absent tag) = %v, want just the invalid page [1]", pages)
		}
	}
}

// TestCoversCountsThePrefix: Covers(n) is "pages 0..n-1 all have slots",
// answered from the covered prefix — which a slot noted out of order (page 2
// before page 1) must not advance past the gap, and which filling the gap
// must carry past every slot already beyond it; a loaded index covers what
// the saved one did.
func TestCoversCountsThePrefix(t *testing.T) {
	m, err := NewMicroindex(miSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := func(idx *Microindex, covered int64) {
		t.Helper()
		for n := int64(0); n <= covered; n++ {
			if !idx.Covers(n) {
				t.Fatalf("Covers(%d) = false, want true up to %d", n, covered)
			}
		}
		if idx.Covers(covered + 1) {
			t.Fatalf("Covers(%d) = true, want false past %d", covered+1, covered)
		}
	}
	want(m, 0)
	m.NoteAppend(2, colRec(3))
	m.NoteAppend(4, colRec(5))
	want(m, 0)
	m.NoteAppend(0, colRec(1))
	want(m, 1)
	m.NoteAppend(1, colRec(2)) // joins 0..2
	want(m, 3)
	m.NoteAppend(3, colRec(4)) // joins 0..4
	want(m, 5)
	want(mustReload(t, m), 5)

	gap, err := NewMicroindex(miSpec())
	if err != nil {
		t.Fatal(err)
	}
	gap.NoteAppend(1, colRec(1))
	gap.NoteAppend(2, colRec(2))
	want(gap, 0)
	want(mustReload(t, gap), 0)
}

func mustReload(t *testing.T, m *Microindex) *Microindex {
	t.Helper()
	loaded, err := LoadMicroindex(m.Marshal(), miSpec())
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestDualHooksBothFire is the regression test for the hook-composability
// fix: attaching a zone map and a microindex to one writer must chain the
// seal/append hooks, not overwrite them — before attachSideIndex chained them,
// the second Attach silently disconnected the first. Both side objects must
// come out complete and exact, for both layouts, alongside a caller's own
// pre-existing hook.
func TestDualHooksBothFire(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		name := map[bool]string{false: "row", true: "columnar"}[columnar]
		t.Run(name, func(t *testing.T) {
			bp := newPool(t, 1<<20)
			spec := core.SetSpec{Name: "s", PageSize: 512}
			if columnar {
				spec.Layout = core.LayoutColumnar
				spec.Columns = colWidths
			}
			set, err := bp.CreateSet(spec)
			if err != nil {
				t.Fatal(err)
			}
			w := NewSeqWriter(set)
			// A hook the caller installed before either Attach must survive.
			callerSaw := 0
			if columnar {
				w.cw.OnSeal = func(int64, *ColumnarPage) { callerSaw++ }
			} else {
				w.OnAppend = func(int64, []byte) { callerSaw++ }
			}
			z, err := AttachZoneMap(w, ZoneMapSpec{Schema: zmSchema(), BloomCols: []int{1}})
			if err != nil {
				t.Fatal(err)
			}
			m, err := AttachMicroindex(w, miSpec())
			if err != nil {
				t.Fatal(err)
			}
			const n = 400
			for i := 0; i < n; i++ {
				if err := w.Add(colRec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			np := set.NumPages()
			if callerSaw == 0 {
				t.Error("attaching side objects disconnected the caller's own hook")
			}
			if !z.Covers(np) {
				t.Errorf("zone map covers %d of %d pages — its hook was displaced", int64(z.NumPages()), np)
			}
			if !m.Covers(np) {
				t.Errorf("microindex covers %d of %d pages — its hook was displaced", int64(m.NumPages()), np)
			}
			zmCheckRanges(t, set, z)
			miCheckExact(t, set, m)
			// Both registered under their own keys.
			if set.SideIndex(ZoneMapTag) != any(z) || set.SideIndex(MicroindexTag) != any(m) {
				t.Error("side-index registry lost one of the two attached objects")
			}
		})
	}
}
