package query

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"pangea/internal/core"
	"pangea/internal/services"
)

// permRows builds n rows whose key column (col 1) is a permutation of
// 0..n-1 scattered so consecutive keys land on distant pages: every key
// occurs exactly once, every page's key range spans nearly the whole
// domain (min/max cannot prune a point probe), and at a few hundred
// distinct keys per page the 256-bit blooms are close to saturated. The
// worst case for a zone map and the best case for a microindex.
func permRows(n int) []Row {
	const stride = 7919 // prime, coprime with the n values used here
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = mkRow(uint32(i), uint32((i*stride)%n), uint32(i%100))
	}
	return rows
}

func ensureBoth(t *testing.T, set *core.LocalitySet) {
	t.Helper()
	if _, err := services.EnsureZoneMap(set, services.ZoneMapSpec{Schema: testSchema(), BloomCols: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := services.EnsureMicroindex(set, services.MicroindexSpec{Schema: testSchema(), Cols: []int{1}}); err != nil {
		t.Fatal(err)
	}
}

// TestScanSpecIndexPointLookup: a point lookup on a non-clustered key
// column visits strictly fewer pages with the microindex than zone-map
// blooms alone — the counters prove it — while returning identical rows,
// and a full-range scan never consults the index at all.
func TestScanSpecIndexPointLookup(t *testing.T) {
	bp := newPool(t, 32<<20)
	const n = 20000
	rows := permRows(n)
	set := loadColSet(t, bp, "c", rows)
	ensureBoth(t, set)
	npages := set.NumPages()
	if npages < 20 {
		t.Fatalf("need a multi-page set for this test, got %d pages", npages)
	}

	count := func(pred Predicate) int64 {
		t.Helper()
		got, err := ScanSpec{Set: set, Threads: 2, Pred: pred}.CountBatches(nil)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// visited reports how many pages a scan actually evaluated rows on,
	// from the counter deltas it caused.
	pred := ColEq{Col: 1, V: 4242}

	// Zone-map-only baseline, the microindex detached: blooms over ~340
	// distinct keys per page are nearly saturated, so most pages survive the
	// probe.
	zc0, zs0 := set.ZoneMapChecks(), set.ZoneMapSkips()
	ic0 := set.Stats().IndexChecks.Load()
	withDetached(set, zoneMapOnly, func() {
		if got := count(pred); got != 1 {
			t.Fatalf("zone-map-only point lookup found %d rows, want 1", got)
		}
	})
	bloomVisited := (set.ZoneMapChecks() - zc0) - (set.ZoneMapSkips() - zs0)
	if set.Stats().IndexChecks.Load() != ic0 {
		t.Error("a scan with the microindex detached still consulted it")
	}
	if set.ZoneMapChecks()-zc0 != npages {
		t.Errorf("zone-map-only scan checked %d pages, want all %d", set.ZoneMapChecks()-zc0, npages)
	}

	// Indexed: the candidate list is exactly the one page holding the key;
	// the zone map then only sees that candidate.
	ic0, ih0 := set.Stats().IndexChecks.Load(), set.IndexHits()
	zc0 = set.ZoneMapChecks()
	if got := count(pred); got != 1 {
		t.Fatalf("indexed point lookup found %d rows, want 1", got)
	}
	checks, hits := set.Stats().IndexChecks.Load()-ic0, set.IndexHits()-ih0
	if checks != npages {
		t.Errorf("index evaluated %d pages, want %d", checks, npages)
	}
	if hits != 1 {
		t.Errorf("index kept %d candidate pages, want 1", hits)
	}
	if zmc := set.ZoneMapChecks() - zc0; zmc != hits {
		t.Errorf("zone map checked %d pages after the index pass, want the %d candidates", zmc, hits)
	}
	if hits >= bloomVisited {
		t.Errorf("index visited %d pages, blooms alone visited %d — index must be strictly better here",
			hits, bloomVisited)
	}

	// Equivalence with the unpruned truth, row path included.
	withDetached(set, unpruned, func() {
		if got := count(pred); got != 1 {
			t.Fatalf("unpruned point lookup found %d rows, want 1", got)
		}
	})
	var rowN atomic.Int64
	err := ScanSpec{Set: set, Threads: 2, Pred: pred}.Run(func(_ int, r Row) error {
		if rowGroup(r) != 4242 {
			t.Errorf("indexed row scan surfaced key %d", rowGroup(r))
		}
		rowN.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rowN.Load() != 1 {
		t.Fatalf("indexed row scan found %d rows, want 1", rowN.Load())
	}

	// A full-range scan is unregressed: the predicate's shape cannot be
	// answered by postings, so the index is never consulted and every row
	// still arrives.
	ic0 = set.Stats().IndexChecks.Load()
	if got := count(ColRange{Col: 0, Lo: 0, Hi: 1 << 40}); got != n {
		t.Errorf("full-range scan found %d rows, want %d", got, n)
	}
	if set.Stats().IndexChecks.Load() != ic0 {
		t.Error("full-range scan consulted the microindex")
	}
}

// TestScanSpecIndexEquivalenceRandom: on random data, indexed scans return
// exactly what zone-map-only and unpruned scans return, across point,
// conjunction and disjunction predicates, on both layouts and both
// pipelines.
func TestScanSpecIndexEquivalenceRandom(t *testing.T) {
	bp := newPool(t, 32<<20)
	rng := rand.New(rand.NewSource(42))
	const n = 8000
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = mkRow(uint32(i), uint32(rng.Intn(2000)), uint32(rng.Intn(100)))
	}
	colSet := loadColSet(t, bp, "c", rows)
	rowSet := loadSet(t, bp, "r", rows)
	ensureBoth(t, colSet)
	ensureBoth(t, rowSet)

	type tc struct {
		pred Predicate
		want func(Row) bool // plain-closure reference
	}
	eq := func(v uint64) tc {
		return tc{ColEq{Col: 1, V: v}, func(r Row) bool { return uint64(rowGroup(r)) == v }}
	}
	k1, k2 := uint64(rng.Intn(2000)), uint64(rng.Intn(2000))
	preds := []tc{
		eq(k1),
		eq(2001), // absent key: zero candidate pages
		{And{ColEq{Col: 1, V: k2}, ColRange{Col: 2, Lo: 0, Hi: 50}},
			func(r Row) bool { return uint64(rowGroup(r)) == k2 && rowAmount(r) < 50 }},
		{And{ColEq{Col: 1, V: 7}, ColEq{Col: 2, V: 3}}, // conjunction of two lookups (col 2 unindexed)
			func(r Row) bool { return rowGroup(r) == 7 && rowAmount(r) == 3 }},
		{Or{ColEq{Col: 1, V: 11}, ColEq{Col: 1, V: 1999}},
			func(r Row) bool { return rowGroup(r) == 11 || rowGroup(r) == 1999 }},
		{Or{ColEq{Col: 1, V: 13}, ColRange{Col: 2, Lo: 90, Hi: 100}}, // unanswerable arm: no index use
			func(r Row) bool { return rowGroup(r) == 13 || rowAmount(r) >= 90 }},
	}
	for i := 0; i < 10; i++ {
		preds = append(preds, eq(uint64(rng.Intn(2200))))
	}
	for pi, c := range preds {
		pred, truth := c.pred, int64(0)
		for _, r := range rows {
			if c.want(r) {
				truth++
			}
		}
		for _, v := range []struct {
			name     string
			detached []string
		}{{"indexed", nil}, {"zone-map-only", zoneMapOnly}, {"unpruned", unpruned}} {
			var got int64
			var err error
			withDetached(colSet, v.detached, func() {
				got, err = ScanSpec{Set: colSet, Threads: 2, Pred: pred}.CountBatches(nil)
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != truth {
				t.Errorf("pred %d %s: batch scan found %d rows, want %d", pi, v.name, got, truth)
			}
			var rn atomic.Int64
			withDetached(rowSet, v.detached, func() {
				err = ScanSpec{Set: rowSet, Threads: 2, Pred: pred, Schema: testSchema()}.
					Run(func(int, Row) error { rn.Add(1); return nil })
			})
			if err != nil {
				t.Fatal(err)
			}
			if rn.Load() != truth {
				t.Errorf("pred %d %s: row scan found %d rows, want %d", pi, v.name, rn.Load(), truth)
			}
		}
	}
}

// TestScanSpecIgnoresStaleIndex: an index that no longer covers the set
// (pages appended after it was built) must never answer — authoritative
// semantics make a stale index wrong, not merely suboptimal.
func TestScanSpecIgnoresStaleIndex(t *testing.T) {
	bp := newPool(t, 16<<20)
	rows := permRows(4000)
	set := loadColSet(t, bp, "c", rows[:2000])
	ensureBoth(t, set)
	// Grow the set behind the attached index's back.
	if err := services.WriteAll(set, rows[2000:]); err != nil {
		t.Fatal(err)
	}
	pred := ColEq{Col: 1, V: uint64(rowGroup(rows[3999]))} // key only in the new pages
	ic0 := set.Stats().IndexChecks.Load()
	got, err := ScanSpec{Set: set, Threads: 2, Pred: pred}.CountBatches(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("scan over stale-indexed set found %d rows, want 1", got)
	}
	if set.Stats().IndexChecks.Load() != ic0 {
		t.Error("scan consulted an index that does not cover the set")
	}
}

// refEval is the reference evaluator of the predicate trees
// TestLaneSeededScansMatchUnpruned draws.
func refEval(p Predicate, r Row) bool {
	switch p := p.(type) {
	case ColEq:
		return uint64(le.Uint32(r[4*p.Col:])) == p.V
	case ColRange:
		v := uint64(le.Uint32(r[4*p.Col:]))
		return p.Lo <= v && v < p.Hi
	case And:
		for _, c := range p {
			if !refEval(c, r) {
				return false
			}
		}
		return true
	case Or:
		for _, c := range p {
			if refEval(c, r) {
				return true
			}
		}
		return false
	}
	panic("unexpected predicate node")
}

// indexAnswers reports whether a microindex on columns 1 and 2 answers p.
func indexAnswers(p Predicate) bool {
	switch p := p.(type) {
	case ColEq:
		return p.Col != 0
	case And:
		return slices.ContainsFunc(p, indexAnswers)
	case Or:
		return len(p) > 0 && !slices.ContainsFunc(p, func(c Predicate) bool { return !indexAnswers(c) })
	}
	return false
}

// randPred draws a ColEq/ColRange/And/Or tree over the three columns:
// group (col 1) and amount (col 2) are indexed, id (col 0) is not.
func randPred(rng *rand.Rand, depth int) Predicate {
	switch k := rng.Intn(6); {
	case depth > 0 && k == 0:
		return And(randPreds(rng, depth-1))
	case depth > 0 && k == 1:
		return Or(randPreds(rng, depth-1))
	case k == 2:
		lo := uint64(rng.Intn(50))
		return ColRange{Col: 2, Lo: lo, Hi: lo + uint64(rng.Intn(10))}
	case k == 3:
		return ColEq{Col: 0, V: uint64(rng.Intn(6000))}
	default:
		col := 1 + rng.Intn(2)
		return ColEq{Col: col, V: uint64(rng.Intn([]int{0, 310, 55}[col]))} // a few values no row holds
	}
}

func randPreds(rng *rand.Rand, depth int) []Predicate {
	ps := make([]Predicate, 1+rng.Intn(3))
	for i := range ps {
		ps[i] = randPred(rng, depth)
	}
	return ps
}

// TestLaneSeededScansMatchUnpruned: when the microindex answers, each page's
// batch starts from the lanes the answer names on it, and the predicate runs
// over those alone. On random ColEq/ColRange/And/Or trees mixing indexed and
// unindexed columns, over a row set and a columnar set that both hold pages
// the index cannot vouch for (short records on the row set, pages the
// columnar set's index was told it could not parse), the indexed scan must
// select exactly the rows — the same ids — that the unpruned scan and a
// reference evaluator do. The zone-map pass still runs after the
// index pass, over the candidate pages alone, and counts its checks.
func TestLaneSeededScansMatchUnpruned(t *testing.T) {
	bp := newPool(t, 32<<20)
	rng := rand.New(rand.NewSource(26))
	const n = 6000
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = mkRow(uint32(i), uint32(rng.Intn(300)), uint32(rng.Intn(50)))
	}
	withShort := make([]Row, 0, n+n/500)
	for i, r := range rows {
		if i%500 == 250 {
			withShort = append(withShort, Row{0xAB, 0xCD}) // too short for the schema
		}
		withShort = append(withShort, r)
	}
	colSet := loadColSet(t, bp, "c", rows)
	rowSet, err := bp.CreateSet(core.SetSpec{Name: "r", PageSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := services.WriteAll(rowSet, withShort); err != nil {
		t.Fatal(err)
	}
	ispec := services.MicroindexSpec{Schema: testSchema(), Cols: []int{1, 2}}
	for _, set := range []*core.LocalitySet{colSet, rowSet} {
		if _, err := services.EnsureZoneMap(set, services.ZoneMapSpec{Schema: testSchema(), BloomCols: []int{1}}); err != nil {
			t.Fatal(err)
		}
		if _, err := services.EnsureMicroindex(set, ispec); err != nil {
			t.Fatal(err)
		}
	}
	colIdx := colSet.SideIndex(services.MicroindexTag).(*services.Microindex)
	shortSet := loadSet(t, bp, "short", []Row{{1}})
	short, err := shortSet.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range []int64{2, 9} {
		if err := colIdx.NotePage(num, short.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := shortSet.Unpin(short, false); err != nil {
		t.Fatal(err)
	}
	for _, set := range []*core.LocalitySet{colSet, rowSet} {
		if locs, _ := set.SideIndex(services.MicroindexTag).(PointIndex).Lookup(1, 1000); len(locs) < 2 {
			t.Fatalf("set %s has %d pages the index cannot vouch for, want several", set.Name(), len(locs))
		}
	}

	// ids scans the set and returns the selected rows' ids, ascending.
	ids := func(set *core.LocalitySet, pred Predicate) []uint32 {
		t.Helper()
		perThread := make([][]uint32, 2)
		err := ScanSpec{Set: set, Threads: 2, Pred: pred, Schema: testSchema()}.RunBatches(func(th int, b *Batch) error {
			for _, i := range b.Sel() {
				perThread[th] = append(perThread[th], b.U32(0, int(i)))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out := append(perThread[0], perThread[1]...)
		slices.Sort(out)
		return out
	}
	answered := 0
	for k := 0; k < 150; k++ {
		pred := randPred(rng, 3)
		var want []uint32
		for _, r := range rows {
			if refEval(pred, r) {
				want = append(want, rowID(r))
			}
		}
		for _, set := range []*core.LocalitySet{colSet, rowSet} {
			ic, ih, zc := set.Stats().IndexChecks.Load(), set.IndexHits(), set.ZoneMapChecks()
			got := ids(set, pred)
			checks, hits, zchecks := set.Stats().IndexChecks.Load()-ic, set.IndexHits()-ih, set.ZoneMapChecks()-zc
			if !slices.Equal(got, want) {
				t.Fatalf("%s, pred %d %#v: indexed scan selected %d rows, the reference %d", set.Name(), k, pred, len(got), len(want))
			}
			var whole []uint32
			withDetached(set, unpruned, func() { whole = ids(set, pred) })
			if !slices.Equal(whole, want) {
				t.Fatalf("%s, pred %d: unpruned scan selected %d rows, the reference %d", set.Name(), k, len(whole), len(want))
			}
			if indexAnswers(pred) {
				answered++
				if checks != set.NumPages() || zchecks != hits {
					t.Errorf("%s, pred %d: index checked %d of %d pages and kept %d, then the zone map checked %d, want the kept ones",
						set.Name(), k, checks, set.NumPages(), hits, zchecks)
				}
			} else if checks != 0 || zchecks != set.NumPages() {
				t.Errorf("%s, pred %d: unanswerable predicate made %d index checks and %d zone-map checks, want 0 and %d",
					set.Name(), k, checks, zchecks, set.NumPages())
			}
		}
	}
	if answered < 100 {
		t.Errorf("only %d of 300 scans were answered by the index", answered)
	}
}
