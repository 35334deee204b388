package query

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pangea/internal/core"
	"pangea/internal/services"
)

func testSchema() []services.ColumnSpec {
	return services.MakeSchema([]string{"id", "group", "amount"}, []int{4, 4, 4})
}

// testPredicates is the equivalence corpus: every algebra node, the narrow
// fallbacks (bounds at or above a column's domain), and compositions.
func testPredicates() []struct {
	name string
	pred Predicate
	want func(Row) bool
} {
	return []struct {
		name string
		pred Predicate
		want func(Row) bool
	}{
		{"range", ColRange{Col: 2, Lo: 10, Hi: 40},
			func(r Row) bool { return rowAmount(r) >= 10 && rowAmount(r) < 40 }},
		{"range-unbounded-above", ColRange{Col: 2, Lo: 50, Hi: 1 << 40},
			func(r Row) bool { return rowAmount(r) >= 50 }},
		{"range-all", ColRange{Col: 2, Lo: 0, Hi: 1 << 40},
			func(Row) bool { return true }},
		{"range-empty", ColRange{Col: 2, Lo: 40, Hi: 40},
			func(Row) bool { return false }},
		{"eq", ColEq{Col: 1, V: 3},
			func(r Row) bool { return rowGroup(r) == 3 }},
		{"eq-domain-max", ColEq{Col: 1, V: 1<<32 - 1},
			func(Row) bool { return false }},
		{"and", And{ColRange{Col: 2, Lo: 0, Hi: 50}, ColEq{Col: 1, V: 2}},
			func(r Row) bool { return rowAmount(r) < 50 && rowGroup(r) == 2 }},
		{"or", Or{ColEq{Col: 1, V: 1}, ColEq{Col: 1, V: 5}},
			func(r Row) bool { return rowGroup(r) == 1 || rowGroup(r) == 5 }},
		{"col-less", ColLess{A: 1, B: 2},
			func(r Row) bool { return rowGroup(r) < rowAmount(r) }},
	}
}

// raggedRows is testRows with every fifth record cut short of the schema's
// 12 bytes (4 or 8 bytes) and every seventh carrying trailing bytes.
func raggedRows(n int) []Row {
	rows := testRows(n)
	for i, r := range rows {
		switch {
		case i%5 == 0:
			rows[i] = r[:4+4*(i%2)]
		case i%7 == 0:
			rows[i] = append(r, 0xEE, 0xEE, 0xEE)
		}
	}
	return rows
}

// shufflePage writes rows through one writer of a one-partition shuffle of
// pageSize-byte pages cut into regionSize-byte small pages, so rows fill the
// regions of its first page in turn, and returns a copy of that page with the
// rows it holds.
func shufflePage(t *testing.T, bp *core.BufferPool, pageSize, regionSize int, rows []Row) ([]byte, []Row) {
	t.Helper()
	sh, err := services.NewShuffle(bp, "shuffle-page", 1, int64(pageSize), regionSize)
	if err != nil {
		t.Fatal(err)
	}
	set, w := sh.Sink(0).Set(), sh.Writer()
	var placed []Row
	for _, r := range rows {
		if err := w[0].Add(r); err != nil {
			t.Fatal(err)
		}
		if set.NumPages() > 1 {
			break
		}
		placed = append(placed, r)
	}
	if err := services.CloseWriters(w); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := set.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), p.Bytes()...)
	if err := set.Unpin(p, false); err != nil {
		t.Fatal(err)
	}
	if err := sh.Drop(); err != nil {
		t.Fatal(err)
	}
	return buf, placed
}

// TestPredicateEquivalence: every predicate selects exactly the rows a plain
// Go closure — the reference kept here in the test — selects, wherever the
// one evaluator runs: batches of a row set's pages, batches of the columnar
// pages of the same records, the row adapter over both, a row set whose
// records are ragged (a record too short to hold every schema column never
// matches), and a multi-region shuffle page presented as a batch.
func TestPredicateEquivalence(t *testing.T) {
	bp := newPool(t, 16<<20)
	rows := testRows(5000)
	rowSet := loadSet(t, bp, "r", rows)
	colSet := loadColSet(t, bp, "c", rows)
	ragged := raggedRows(3000)
	raggedSet := loadSet(t, bp, "ragged", ragged)
	page, paged := shufflePage(t, bp, 8<<10, 1000, raggedRows(600))
	if len(paged) < 300 {
		t.Fatalf("shuffle page holds %d rows; want several regions' worth", len(paged))
	}

	for _, tc := range testPredicates() {
		t.Run(tc.name, func(t *testing.T) {
			// want is the reference: the closure, and a record long enough.
			want := func(rows []Row) (n, sum int64) {
				for _, r := range rows {
					if len(r) >= 12 && tc.want(r) {
						n++
						sum += int64(rowID(r))
					}
				}
				return n, sum
			}
			check := func(path string, data []Row, n, sum int64, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if wantN, wantSum := want(data); n != wantN || sum != wantSum {
					t.Errorf("%s: n=%d sum=%d, want %d/%d", path, n, sum, wantN, wantSum)
				}
			}
			for _, in := range []struct {
				name   string
				set    *core.LocalitySet
				schema []services.ColumnSpec
				data   []Row
			}{{"row", rowSet, testSchema(), rows}, {"columnar", colSet, nil, rows}, {"ragged-row", raggedSet, testSchema(), ragged}} {
				spec := ScanSpec{Set: in.set, Threads: 3, Pred: tc.pred, Schema: in.schema}
				var n, sum atomic.Int64
				err := spec.RunBatches(func(_ int, b *Batch) error {
					ids := b.Col(0)
					for _, r := range b.Sel() {
						sum.Add(int64(binary.LittleEndian.Uint32(ids[int(r)*4:])))
					}
					n.Add(int64(b.Selected()))
					return nil
				})
				check(in.name+"/batches", in.data, n.Load(), sum.Load(), err)

				n.Store(0)
				sum.Store(0)
				err = spec.Run(func(_ int, r Row) error {
					n.Add(1)
					sum.Add(int64(rowID(r)))
					return nil
				})
				check(in.name+"/rows", in.data, n.Load(), sum.Load(), err)
			}

			var b Batch
			if err := b.reset(page, testSchema()); err != nil {
				t.Fatal(err)
			}
			if b.NumRows() != len(paged) {
				t.Fatalf("shuffle page presented %d rows, holds %d", b.NumRows(), len(paged))
			}
			b.dropShort()
			tc.pred.applyBatch(&b)
			var n, sum int64
			for _, r := range b.Sel() {
				n++
				sum += int64(rowID(b.MaterializeRow(int(r), nil)))
			}
			check("shuffle-page", paged, n, sum, nil)
		})
	}
}

// TestScanSpecPrunesPages: over clustered data with a zone map attached, a
// selective range scan skips pages — counters prove it — and predicates on
// unsummarized shapes leave the skip counter alone.
func TestScanSpecPrunesPages(t *testing.T) {
	bp := newPool(t, 32<<20)
	rows := testRows(20000) // id is monotone: clustered for pruning
	colSet := loadColSet(t, bp, "c", rows)
	spec := services.ZoneMapSpec{Schema: testSchema()}
	if _, err := services.EnsureZoneMap(colSet, spec); err != nil {
		t.Fatal(err)
	}

	count := func(set *core.LocalitySet, pred Predicate) int64 {
		t.Helper()
		n, err := ScanSpec{Set: set, Threads: 2, Pred: pred}.CountBatches(nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	pred := ColRange{Col: 0, Lo: 500, Hi: 1500}

	checks0, skips0 := colSet.ZoneMapChecks(), colSet.ZoneMapSkips()
	pruned := count(colSet, pred)
	checks1, skips1 := colSet.ZoneMapChecks(), colSet.ZoneMapSkips()
	if checks1 == checks0 || skips1 == skips0 {
		t.Errorf("selective scan: checks %d->%d skips %d->%d, want both to advance",
			checks0, checks1, skips0, skips1)
	}
	if pruned != 1000 {
		t.Errorf("pruned scan found %d rows, want 1000", pruned)
	}
	if got := count(colSet, pred); got != pruned {
		t.Errorf("repeat pruned scan found %d rows, want %d", got, pruned)
	}
	// An unselective range prunes nothing but still checks every page.
	preSkips := colSet.ZoneMapSkips()
	preChecks := colSet.ZoneMapChecks()
	if got := count(colSet, ColRange{Col: 0, Lo: 0, Hi: 1 << 40}); got != int64(len(rows)) {
		t.Errorf("full-range scan found %d rows, want %d", got, len(rows))
	}
	if colSet.ZoneMapSkips() != preSkips {
		t.Error("full-range scan skipped pages")
	}
	if colSet.ZoneMapChecks() == preChecks {
		t.Error("full-range scan consulted no zone map")
	}

	// The row pipeline prunes through the same spec on a row set.
	rowSet := loadSet(t, bp, "r", rows)
	if _, err := services.EnsureZoneMap(rowSet, spec); err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	err := ScanSpec{Set: rowSet, Threads: 2, Pred: pred, Schema: testSchema()}.Run(func(_ int, r Row) error {
		n.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != pruned {
		t.Errorf("row-set pruned scan found %d rows, want %d", n.Load(), pruned)
	}
	if rowSet.ZoneMapSkips() == 0 {
		t.Error("row-set scan skipped no pages over clustered data")
	}
}

// TestScanWithoutZoneMapVisitsEveryPage: with its zone map detached a set is
// scanned whole — every page reaches the scan and no zone map is checked —
// and the scan selects exactly the rows the pruned scan selects.
func TestScanWithoutZoneMapVisitsEveryPage(t *testing.T) {
	bp := newPool(t, 32<<20)
	rows := testRows(20000) // id is monotone: clustered for pruning
	set := loadColSet(t, bp, "c", rows)
	if _, err := services.EnsureZoneMap(set, services.ZoneMapSpec{Schema: testSchema()}); err != nil {
		t.Fatal(err)
	}
	// scan returns the ids the scan selects, ascending, and the pages it
	// visited.
	scan := func() (ids []uint32, pages int64) {
		t.Helper()
		var mu sync.Mutex
		err := ScanSpec{Set: set, Threads: 2, Pred: ColRange{Col: 0, Lo: 500, Hi: 1500}}.RunBatches(func(_ int, b *Batch) error {
			mu.Lock()
			defer mu.Unlock()
			pages++
			for _, i := range b.Sel() {
				ids = append(ids, b.U32(0, int(i)))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(ids)
		return ids, pages
	}
	pruned, prunedPages := scan()
	if prunedPages >= set.NumPages() {
		t.Fatalf("the pruned scan visited %d of %d pages; the test needs it to skip some", prunedPages, set.NumPages())
	}
	var whole []uint32
	var wholePages int64
	checks, skips := set.ZoneMapChecks(), set.ZoneMapSkips()
	withDetached(set, []string{services.ZoneMapTag}, func() { whole, wholePages = scan() })
	if wholePages != set.NumPages() {
		t.Errorf("the scan without a zone map visited %d of %d pages", wholePages, set.NumPages())
	}
	if set.ZoneMapChecks() != checks || set.ZoneMapSkips() != skips {
		t.Error("the scan without a zone map checked one")
	}
	if !slices.Equal(whole, pruned) || len(pruned) != 1000 {
		t.Errorf("the scan without a zone map selected %d rows, the pruned scan %d, want the same 1000", len(whole), len(pruned))
	}
	if _, ok := set.SideIndex(services.ZoneMapTag).(*services.ZoneMap); !ok {
		t.Error("the zone map was not put back")
	}
}

// TestScanSpecValidation: predicate scans fail loudly on shape errors
// instead of silently scanning wrong bytes.
func TestScanSpecValidation(t *testing.T) {
	bp := newPool(t, 8<<20)
	rows := testRows(100)
	rowSet := loadSet(t, bp, "r", rows)
	colSet := loadColSet(t, bp, "c", rows)

	// Predicate over a row set needs a schema.
	err := ScanSpec{Set: rowSet, Pred: ColEq{Col: 1, V: 3}}.Run(func(int, Row) error { return nil })
	if err == nil {
		t.Error("predicate over schemaless row set must error")
	}
	// Out-of-range column, both paths.
	bad := ColRange{Col: 9, Lo: 0, Hi: 1}
	if err := (ScanSpec{Set: colSet, Pred: bad}).Run(func(int, Row) error { return nil }); err == nil {
		t.Error("out-of-range column must error on the row path")
	}
	if err := (ScanSpec{Set: colSet, Pred: bad}).RunBatches(func(int, *Batch) error { return nil }); err == nil {
		t.Error("out-of-range column must error on the batch path")
	}
	// A node over a width it cannot compare.
	wide := services.MakeSchema([]string{"id", "rest"}, []int{4, 8})
	if err := (ScanSpec{Set: rowSet, Pred: ColRangeF64{Col: 0, Lo: 0, Hi: 1}, Schema: wide}).Run(func(int, Row) error { return nil }); err == nil {
		t.Error("ColRangeF64 over a 4-byte column must error")
	}
}

// TestLocMerges pins how And and Or combine two index answers: lanes
// intersect or unite page by page, and a page either side scans whole
// (lane services.LaneAll) keeps the other's lanes under And and is scanned
// whole under Or.
func TestLocMerges(t *testing.T) {
	all := uint64(services.LaneAll)
	loc := func(page, lane uint64) uint64 { return page<<32 | lane }
	a := []uint64{loc(1, 3), loc(1, 5), loc(2, all), loc(3, 1), loc(4, 2), loc(6, all)}
	b := []uint64{loc(1, 5), loc(1, 9), loc(2, 4), loc(3, all), loc(4, 7), loc(5, 0), loc(6, all)}
	if got, want := intersectLocs(a, b), []uint64{loc(1, 5), loc(2, 4), loc(3, 1), loc(6, all)}; !slices.Equal(got, want) {
		t.Errorf("intersectLocs = %x, want %x", got, want)
	}
	if got, want := unionLocs(a, b), []uint64{loc(1, 3), loc(1, 5), loc(1, 9), loc(2, all), loc(3, all), loc(4, 2), loc(4, 7), loc(5, 0), loc(6, all)}; !slices.Equal(got, want) {
		t.Errorf("unionLocs = %x, want %x", got, want)
	}
	for _, p := range [][]uint64{a, b} {
		if got := unionLocs(p, nil); !slices.Equal(got, p) {
			t.Errorf("unionLocs(%x, nil) = %x", p, got)
		}
		if got := intersectLocs(p, p); !slices.Equal(got, p) {
			t.Errorf("intersectLocs(%x, itself) = %x", p, got)
		}
	}
}
