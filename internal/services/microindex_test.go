package services

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pangea/internal/core"
)

// miSpec indexes the tag column (col 1) of the shared colRec shape.
func miSpec() MicroindexSpec {
	return MicroindexSpec{Schema: zmSchema(), Cols: []int{1}}
}

// miCheckExact verifies the index's lookups against a rescan of the set's
// actual bytes: for every present value the answer is exactly the rows
// holding it, and absent in-domain values return no candidates. The index is
// authoritative, so this is equality, not containment.
func miCheckExact(t *testing.T, set *core.LocalitySet, m *Microindex) {
	t.Helper()
	truth := make(map[uint64][]uint64)
	for _, p := range pairsOf(t, set)[0] {
		truth[p.v] = append(truth[p.v], p.loc)
	}
	for v := uint64(0); v < 256; v++ {
		locs, ok := m.Lookup(1, v)
		if !ok {
			t.Fatalf("indexed column did not answer value %d", v)
		}
		if !slices.Equal(locs, truth[v]) {
			t.Fatalf("value %d: lookup returned %x, the set holds it at %x", v, locs, truth[v])
		}
	}
	if _, ok := m.Lookup(0, 1); ok {
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

	loaded, err := decodeMicroindex(m.Marshal(), miSpec())
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
	if _, err := decodeMicroindex(m.Marshal(), reshaped); err == nil {
		t.Error("loading under a reshaped spec must error")
	}
	if _, err := EnsureMicroindex(set, reshaped); err != nil {
		t.Fatalf("Ensure under reshaped spec: %v", err)
	}
}

// TestMicroindexInvalidPagesAlwaysCandidates: a page the index could not
// parse (short record) stays covered but joins every lookup result whole — an
// authoritative index must never vouch for a page it could not read, not even
// for the rows it noted before it gave up on it. The property survives a
// marshal/load round trip.
func TestMicroindexInvalidPagesAlwaysCandidates(t *testing.T) {
	m, err := NewMicroindex(miSpec())
	if err != nil {
		t.Fatal(err)
	}
	noteRows(t, m, 0, colRec(2), colRec(1)) // tag 1%251 = 1, lane 1
	noteRows(t, m, 1, colRec(1), []byte{9}) // short: page 1 unparseable
	noteRows(t, m, 2, colRec(3))
	if !m.Covers(3) {
		t.Fatal("invalid page lost coverage")
	}
	whole1 := uint64(1)<<32 | LaneAll
	for _, idx := range []*Microindex{m, mustReload(t, m)} {
		locs, ok := idx.Lookup(1, 1)
		if want := []uint64{1, whole1}; !ok || !slices.Equal(locs, want) {
			t.Fatalf("lookup(tag=1) = %x ok=%v, want %x (page 0 lane 1, invalid page 1 whole)", locs, ok, want)
		}
		// Even a value nothing holds must surface the invalid page.
		locs, _ = idx.Lookup(1, 200)
		if want := []uint64{whole1}; !slices.Equal(locs, want) {
			t.Fatalf("lookup(absent tag) = %x, want just the invalid page %x", locs, want)
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
	noteRows(t, m, 2, colRec(3))
	noteRows(t, m, 4, colRec(5))
	want(m, 0)
	noteRows(t, m, 0, colRec(1))
	want(m, 1)
	noteRows(t, m, 1, colRec(2)) // joins 0..2
	want(m, 3)
	noteRows(t, m, 3, colRec(4)) // joins 0..4
	want(m, 5)
	want(mustReload(t, m), 5)

	gap, err := NewMicroindex(miSpec())
	if err != nil {
		t.Fatal(err)
	}
	noteRows(t, gap, 1, colRec(1))
	noteRows(t, gap, 2, colRec(2))
	want(gap, 0)
	want(mustReload(t, gap), 0)
}

func mustReload(t *testing.T, m *Microindex) *Microindex {
	t.Helper()
	loaded, err := decodeMicroindex(m.Marshal(), miSpec())
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestDualHooksBothFire is the regression test for the hook-composability
// fix: attaching a zone map and a microindex to one writer must fold both,
// not let one displace the other — before attachSideIndex chained them, the
// second Attach silently disconnected the first. Both side objects must come
// out complete and exact, for both layouts.
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

// diffSpec indexes the tag (col 1, u16) and val (col 2, u64) columns of the
// colRec shape; diffRec draws both from small domains, so values repeat
// within and across pages.
func diffSpec() MicroindexSpec {
	return MicroindexSpec{Schema: zmSchema(), Cols: []int{2, 1}}
}

func diffRec(rng *rand.Rand, i int) []byte {
	r := colRec(i)
	binary.LittleEndian.PutUint16(r[4:6], uint16(rng.Intn(40)))
	binary.LittleEndian.PutUint64(r[6:14], uint64(rng.Intn(7))<<40)
	return r
}

// pairsOf rescans the set and returns, for the tag and val columns (the
// slots of diffSpec), the (value, location) pair of every row in (value,
// location) order: the reference an index must equal, built from the rows
// themselves.
func pairsOf(t *testing.T, set *core.LocalitySet) [][]posting {
	t.Helper()
	want := make([][]posting, 2)
	for _, num := range set.PageNums() {
		p, err := set.Pin(num)
		if err != nil {
			t.Fatal(err)
		}
		lane := uint64(0)
		err = WalkPage(p.Bytes(), func(rec []byte) error {
			loc := uint64(num)<<32 | lane
			want[0] = append(want[0], posting{uint64(binary.LittleEndian.Uint16(rec[4:6])), loc})
			want[1] = append(want[1], posting{binary.LittleEndian.Uint64(rec[6:14]), loc})
			lane++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range want {
		slices.SortFunc(w, comparePostings)
	}
	return want
}

// bodies returns an index's sealed pairs per indexed column.
func bodies(m *Microindex) [][]posting {
	m.lockedSeal()
	out := make([][]posting, len(m.post))
	for i, p := range m.post {
		out[i] = p.body
	}
	return out
}

// TestMicroindexBuildsAgree is the flat index's differential test: on random
// rows with repeated values, the ways an index comes to be — the writer's row
// hook, its columnar seal hook, a rebuild by scan, and a load of the
// marshaled object — all hold the same pairs, and those are exactly the
// rows' own (value, page, lane) triples.
func TestMicroindexBuildsAgree(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		name := map[bool]string{false: "row hook", true: "columnar seal"}[columnar]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(26))
			bp := newPool(t, 1<<20)
			spec := core.SetSpec{Name: "s", PageSize: 512}
			if columnar {
				spec.Layout, spec.Columns = core.LayoutColumnar, colWidths
			}
			set, err := bp.CreateSet(spec)
			if err != nil {
				t.Fatal(err)
			}
			w := NewSeqWriter(set)
			hooked, err := AttachMicroindex(w, diffSpec())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3000; i++ {
				if err := w.Add(diffRec(rng, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			want := pairsOf(t, set)
			if len(want[0]) != 3000 {
				t.Fatalf("reference holds %d rows, want 3000", len(want[0]))
			}
			rebuilt, err := NewMicroindex(diffSpec())
			if err != nil {
				t.Fatal(err)
			}
			if err := rebuilt.rebuildFromScan(set, set.NumPages()); err != nil {
				t.Fatal(err)
			}
			loaded, err := decodeMicroindex(hooked.Marshal(), diffSpec())
			if err != nil {
				t.Fatal(err)
			}
			for build, m := range map[string]*Microindex{name: hooked, "rebuild": rebuilt, "load": loaded} {
				for slot, got := range bodies(m) {
					if !slices.Equal(got, want[slot]) {
						t.Errorf("%s: column slot %d holds %d pairs, the rows %d, or they differ", build, slot, len(got), len(want[slot]))
					}
				}
			}
		})
	}
}

// TestMicroindexNotesInAnyOrder covers the notes a writer's hooks alone do
// not make, checking each lookup against the pairs noted: a columnar page
// sealed twice (its rows appear once), pages noted out of order, invalid
// pages (a short record, a reshaped columnar page, a page number no
// location can name) and lookups and a Marshal that meet an unsealed tail.
func TestMicroindexNotesInAnyOrder(t *testing.T) {
	bp := newPool(t, 1<<20)
	set := mkColSet(t, bp, "c", 512)
	if err := WriteAll(set, [][]byte{colRec(1), colRec(2), colRec(1)}); err != nil {
		t.Fatal(err)
	}
	p, err := set.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = set.Unpin(p, false) }()
	page := p.Bytes()
	// A columnar page of another shape, to stand for a reshaped page.
	reshaped := make([]byte, 256)
	initColumnarPage(reshaped, []int{4, 2}, 8)
	binary.LittleEndian.PutUint32(reshaped[8:12], 1)

	m, err := NewMicroindex(miSpec())
	if err != nil {
		t.Fatal(err)
	}
	note := func(num int64, page []byte) {
		t.Helper()
		if err := m.NotePage(num, page); err != nil {
			t.Fatal(err)
		}
	}
	lookup := func(v uint64, want ...uint64) {
		t.Helper()
		if got, ok := m.Lookup(1, v); !ok || !slices.Equal(got, want) {
			t.Fatalf("Lookup(tag %d) = %x ok=%v, want %x", v, got, ok, want)
		}
	}
	note(3, page)                // tags 1, 2, 1 at lanes 0, 1, 2
	note(3, page)                // restated before the first seal
	noteRows(t, m, 1, colRec(1)) // page 1 before page 0
	noteRows(t, m, 0, colRec(2), colRec(1))
	lookup(1, 0<<32|1, 1<<32|0, 3<<32|0, 3<<32|2) // the first lookup seals
	note(3, page)                                 // the same page, sealed again
	note(2, page)
	lookup(1, 0<<32|1, 1<<32|0, 2<<32|0, 2<<32|2, 3<<32|0, 3<<32|2) // merged, no repeats
	noteRows(t, m, 4, colRec(1), []byte{9})                         // a short record: page 4 is invalid
	note(2, reshaped)                                               // a page of another shape: page 2 is invalid
	lookup(1, 0<<32|1, 1<<32|0, 2<<32|LaneAll, 3<<32|0, 3<<32|2, 4<<32|LaneAll)
	lookup(2, 0<<32|0, 2<<32|LaneAll, 3<<32|1, 4<<32|LaneAll)
	lookup(7, 2<<32|LaneAll, 4<<32|LaneAll)

	noteRows(t, m, 5, colRec(2)) // unsealed when Marshal runs
	loaded, err := decodeMicroindex(m.Marshal(), miSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := loaded.Lookup(1, 2); !slices.Equal(got, []uint64{0 << 32, 2<<32 | LaneAll, 3<<32 | 1, 4<<32 | LaneAll, 5 << 32}) {
		t.Errorf("reloaded Lookup(tag 2) = %x, missing the note Marshal sealed", got)
	}

	// A page no location can name is invalid, and because a lookup cannot
	// name it either, the index stops answering rather than wrap.
	noteRows(t, m, 1<<32, colRec(1))
	if got, ok := m.Lookup(1, 1); ok {
		t.Errorf("Lookup with page 2^32 invalid = %x, want no answer", got)
	}
	if pg := m.pages[1<<32]; pg == nil || pg.valid {
		t.Error("a note on page 2^32 left the page valid")
	}
	// So is a page whose lanes run past 2^31-1, the largest selection index:
	// none of its rows is folded. A page of 2^31 rows is nameable, so its one
	// folded row leaves the rest out and invalidates it only then. (One row
	// of each is folded, so no page-sized value buffer is made.)
	for _, c := range []struct {
		num  int64
		n    int
		rows int64
	}{{6, math.MaxInt32 + 2, 0}, {7, math.MaxInt32 + 1, 1}} {
		var pp pageParse
		if err := pp.reset(rowPage(colRec(1))); err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		before := make([]int, len(m.post))
		for slot := range m.post {
			before[slot] = m.post[slot].n
		}
		m.notePage(c.num, c.n, 1, &pp)
		m.mu.Unlock()
		if pg := m.pages[c.num]; pg.valid || pg.rows != c.rows {
			t.Errorf("page of %d rows, one noted: valid=%v rows=%d, want invalid with %d rows",
				c.n, pg.valid, pg.rows, c.rows)
		}
		for slot := range m.post {
			if folded := m.post[slot].n - before[slot]; int64(folded) != c.rows {
				t.Errorf("page of %d rows, one noted: column slot %d folded %d values, want %d",
					c.n, slot, folded, c.rows)
			}
		}
	}
	if !nameable(7, math.MaxInt32+1) || nameable(6, math.MaxInt32+2) || nameable(1<<32, 1) {
		t.Error("nameable misplaces the lane or page bound")
	}
}

// TestRadixSortMatchesSort holds the seal's sort to a comparison sort over
// tails of one posting to several buckets' worth, in page runs of random
// length, with values that vary in no bit, in the low 9 or 20 bits, or in all
// of them, and pages that ascend as a writer folds them, fall anywhere in 32
// bits, or repeat one number — a page folded again counts by its last fold —
// so passes run or are skipped and both pass parities occur.
func TestRadixSortMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []func() uint64{
		func() uint64 { return 7 },
		func() uint64 { return uint64(rng.Intn(300)) },
		func() uint64 { return uint64(rng.Intn(1 << 20)) },
		func() uint64 { return rng.Uint64() },
	}
	pages := []func(run int) int64{
		func(run int) int64 { return int64(run) },
		func(int) int64 { return rng.Int63n(1 << 32) },
		func(int) int64 { return 7 },
	}
	for _, n := range []int{1, 5, 100, bucketPairs, 3*bucketPairs + 17} {
		for vi, v := range values {
			for pi, page := range pages {
				var tail [][]uint64
				var nums []int64
				for run, left := 0, n; left > 0; run++ {
					vals := make([]uint64, min(left, 1+rng.Intn(600)))
					for lane := range vals {
						vals[lane] = v()
					}
					tail, nums, left = append(tail, vals), append(nums, page(run)), left-len(vals)
				}
				var diff uint64
				last := map[int64]int{}
				for run, num := range nums {
					last[num] = run
					for _, x := range tail[run] {
						diff |= x ^ tail[0][0]
					}
				}
				var want []posting
				for num, run := range last {
					for lane, v := range tail[run] {
						want = append(want, posting{v, uint64(num)<<32 | uint64(lane)})
					}
				}
				slices.SortFunc(want, comparePostings)
				if got := sortPostings(tail, nums, n, diff); !slices.Equal(got, want) {
					t.Errorf("n=%d, value domain %d, page domain %d: order differs", n, vi, pi)
				}
			}
		}
	}
}

// v1Object re-encodes a v2 microindex object in the v1 format: the same
// header and page table with version 1, and per column the distinct values,
// each with its ascending page list.
func v1Object(t *testing.T, m *Microindex) []byte {
	t.Helper()
	data := m.Marshal()
	body := sideHeaderBytes + 16*len(m.widths) + 8*len(m.cols) + sidePageBytes*len(m.pages)
	out := append([]byte(nil), data[:body]...)
	le.PutUint64(out[8:], 1)
	for _, p := range m.post {
		var vals []uint64
		lists := map[uint64][]uint64{}
		for _, q := range p.body {
			if len(lists[q.v]) == 0 {
				vals = append(vals, q.v)
			}
			if l := lists[q.v]; len(l) == 0 || l[len(l)-1] != q.loc>>32 {
				lists[q.v] = append(l, q.loc>>32)
			}
		}
		out = le.AppendUint64(out, uint64(len(vals)))
		for _, v := range vals {
			out = le.AppendUint64(le.AppendUint64(out, v), uint64(len(lists[v])))
			for _, num := range lists[v] {
				out = le.AppendUint64(out, num)
			}
		}
	}
	return out
}

// TestMicroindexV1ObjectHeals: a microindex persisted in the v1 format fails
// the version check, so EnsureMicroindex rebuilds it by scan, counts the heal
// in SideObjectRebuilds and persists v2 in its place — which the next Ensure
// loads without healing. A zone map, whose format did not change, keeps
// loading.
func TestMicroindexV1ObjectHeals(t *testing.T) {
	bp := newPool(t, 1<<20)
	set := mkColSet(t, bp, "c", 512)
	w := NewSeqWriter(set)
	m, err := AttachMicroindex(w, miSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AttachZoneMap(w, ZoneMapSpec{Schema: zmSchema()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := w.Add(colRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	old := v1Object(t, m)
	if _, err := decodeMicroindex(old, miSpec()); err == nil {
		t.Fatal("a v1 object loaded as v2")
	}
	if err := set.WriteSideObject(MicroindexTag, old); err != nil {
		t.Fatal(err)
	}
	z := set.SideIndex(ZoneMapTag).(*ZoneMap)
	if err := z.Save(set); err != nil {
		t.Fatal(err)
	}
	set.SetSideIndex(MicroindexTag, nil)
	set.SetSideIndex(ZoneMapTag, nil)
	for round := 0; round < 2; round++ {
		healed, err := EnsureMicroindex(set, miSpec())
		if err != nil {
			t.Fatal(err)
		}
		miCheckExact(t, set, healed)
		if got := set.Stats().SideObjectRebuilds.Load(); got != 1 {
			t.Fatalf("round %d: counted %d side-object rebuilds, want the v1 heal alone", round, got)
		}
		set.SetSideIndex(MicroindexTag, nil)
	}
	if _, err := EnsureZoneMap(set, ZoneMapSpec{Schema: zmSchema()}); err != nil {
		t.Fatal(err)
	}
	if got := set.Stats().SideObjectRebuilds.Load(); got != 1 {
		t.Errorf("the zone map's unchanged format healed too: %d rebuilds", got)
	}
}

// TestMicroindexConcurrentNotesAndLookups: lookups that find an unsealed
// tail seal it under the write lock while a writer keeps noting rows, so
// under -race every lookup sees ascending locations and, once the notes end,
// every row.
func TestMicroindexConcurrentNotesAndLookups(t *testing.T) {
	m, err := NewMicroindex(miSpec())
	if err != nil {
		t.Fatal(err)
	}
	const pages, perPage = 40, 50
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				locs, _ := m.Lookup(1, 7)
				if !slices.IsSorted(locs) {
					t.Errorf("lookup during notes returned %x, not ascending", locs)
					return
				}
			}
		}()
	}
	var want []uint64
	for page := int64(0); page < pages; page++ {
		var recs [][]byte
		for lane := 0; lane < perPage; lane++ {
			i := int(page)*perPage + lane
			recs = append(recs, colRec(i))
			if i%251 == 7 {
				want = append(want, uint64(page)<<32|uint64(lane))
			}
		}
		noteRows(t, m, page, recs...)
	}
	close(done)
	wg.Wait()
	if got, _ := m.Lookup(1, 7); !slices.Equal(got, want) {
		t.Fatalf("Lookup(tag 7) after the notes = %x, want %x", got, want)
	}
}
