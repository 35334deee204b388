package query

import (
	"encoding/binary"
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
		{"rowpred", RowPred(func(r Row) bool { return rowID(r)%3 == 0 }),
			func(r Row) bool { return rowID(r)%3 == 0 }},
		{"and-rowpred", And{ColRange{Col: 0, Lo: 100, Hi: 900}, RowPred(func(r Row) bool { return rowID(r)%2 == 0 })},
			func(r Row) bool { return rowID(r) >= 100 && rowID(r) < 900 && rowID(r)%2 == 0 }},
	}
}

// TestPredicateEquivalence: every predicate selects exactly the rows its
// closure form selects, on all three execution paths — the row pipeline over
// a row set (Schema-compiled), the row pipeline over a columnar set, and the
// batch kernels — with identical counts and id-sums.
func TestPredicateEquivalence(t *testing.T) {
	bp := newPool(t, 16<<20)
	rows := testRows(5000)
	rowSet := loadSet(t, bp, "r", rows)
	colSet := loadColSet(t, bp, "c", rows)

	for _, tc := range testPredicates() {
		t.Run(tc.name, func(t *testing.T) {
			var wantN, wantSum int64
			for _, r := range rows {
				if tc.want(r) {
					wantN++
					wantSum += int64(rowID(r))
				}
			}
			check := func(path string, n, sum int64, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if n != wantN || sum != wantSum {
					t.Errorf("%s: n=%d sum=%d, want %d/%d", path, n, sum, wantN, wantSum)
				}
			}
			runRows := func(set *core.LocalitySet, schema []services.ColumnSpec) (int64, int64, error) {
				var n, sum atomic.Int64
				err := ScanSpec{Set: set, Threads: 3, Pred: tc.pred, Schema: schema}.Run(func(_ int, r Row) error {
					n.Add(1)
					sum.Add(int64(rowID(r)))
					return nil
				})
				return n.Load(), sum.Load(), err
			}
			n, sum, err := runRows(rowSet, testSchema())
			check("row-set", n, sum, err)
			n, sum, err = runRows(colSet, nil)
			check("columnar-row-pipeline", n, sum, err)

			var bn, bsum atomic.Int64
			err = ScanSpec{Set: colSet, Threads: 3, Pred: tc.pred}.RunBatches(func(_ int, b *Batch) error {
				ids := b.Col(0)
				for _, r := range b.Sel() {
					bsum.Add(int64(binary.LittleEndian.Uint32(ids[int(r)*4:])))
				}
				bn.Add(int64(b.Selected()))
				return nil
			})
			check("batch", bn.Load(), bsum.Load(), err)
		})
	}
}

// TestScanSpecPrunesPages: over clustered data with a zone map attached, a
// selective range scan skips pages — counters prove it — while returning
// exactly the rows the unpruned scan returns; HintNoPrune and predicates on
// unsummarized shapes leave the counters alone.
func TestScanSpecPrunesPages(t *testing.T) {
	bp := newPool(t, 32<<20)
	rows := testRows(20000) // id is monotone: clustered for pruning
	colSet := loadColSet(t, bp, "c", rows)
	spec := services.ZoneMapSpec{Schema: testSchema()}
	if _, err := services.EnsureZoneMap(colSet, spec); err != nil {
		t.Fatal(err)
	}

	count := func(set *core.LocalitySet, pred Predicate, hint ScanHint) int64 {
		t.Helper()
		n, err := ScanSpec{Set: set, Threads: 2, Pred: pred, Hint: hint}.CountBatches(nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	pred := ColRange{Col: 0, Lo: 500, Hi: 1500}

	checks0, skips0 := colSet.ZoneMapChecks(), colSet.ZoneMapSkips()
	pruned := count(colSet, pred, HintNone)
	checks1, skips1 := colSet.ZoneMapChecks(), colSet.ZoneMapSkips()
	if checks1 == checks0 || skips1 == skips0 {
		t.Errorf("selective scan: checks %d->%d skips %d->%d, want both to advance",
			checks0, checks1, skips0, skips1)
	}
	if full := count(colSet, pred, HintNoPrune); pruned != full {
		t.Errorf("pruned scan found %d rows, unpruned %d", pruned, full)
	}
	if colSet.ZoneMapSkips() != skips1 {
		t.Error("HintNoPrune still skipped pages")
	}
	if got := count(colSet, pred, HintNone); got != pruned {
		t.Errorf("repeat pruned scan found %d rows, want %d", got, pruned)
	}
	// An unselective range prunes nothing but still checks every page.
	preSkips := colSet.ZoneMapSkips()
	preChecks := colSet.ZoneMapChecks()
	if got := count(colSet, ColRange{Col: 0, Lo: 0, Hi: 1 << 40}, HintNone); got != int64(len(rows)) {
		t.Errorf("full-range scan found %d rows, want %d", got, len(rows))
	}
	if colSet.ZoneMapSkips() != preSkips {
		t.Error("full-range scan skipped pages")
	}
	if colSet.ZoneMapChecks() == preChecks {
		t.Error("full-range scan consulted no zone map")
	}
	// RowPred is opaque: nothing to prune against.
	preSkips = colSet.ZoneMapSkips()
	if got := count(colSet, RowPred(func(r Row) bool { return rowID(r) < 100 }), HintNone); got != 100 {
		t.Errorf("rowpred scan found %d rows, want 100", got)
	}
	if colSet.ZoneMapSkips() != preSkips {
		t.Error("opaque row predicate pruned pages")
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
	// A nil row closure is a programming error, not a match-all.
	if err := (ScanSpec{Set: colSet, Pred: RowPred(nil)}).Run(func(int, Row) error { return nil }); err == nil {
		t.Error("nil RowPred must error")
	}
	// Batch scans still reject row layouts.
	err = ScanSpec{Set: rowSet, Pred: ColEq{Col: 1, V: 3}, Schema: testSchema()}.RunBatches(func(int, *Batch) error { return nil })
	if err == nil {
		t.Error("batch scan over a row-layout set must error")
	}
}
