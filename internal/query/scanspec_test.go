package query

import (
	"slices"
	"testing"

	"pangea/internal/services"
)

// TestPooledBatchesCarryNothingAcrossScans: RunBatches' batches go back to a
// process-wide pool and the next scan takes them up again, so a scan must see
// nothing the one before it left — not its layout, its column count, its
// gathered vectors nor its selection. One thread, so consecutive scans reuse
// one batch; the sequence runs twice so every kind of scan follows every
// other kind once.
func TestPooledBatchesCarryNothingAcrossScans(t *testing.T) {
	bp := newPool(t, 8<<20)
	const n = 3000
	colSet := loadColSet(t, bp, "c", testRows(n))
	// Five u32 columns: id, id%7, id%100, 3*id, id%13.
	five := func(r Row) []uint32 {
		v := make([]uint32, 5)
		for c := range v {
			v[c] = le.Uint32(r[4*c:])
		}
		return v
	}
	rows := make([]Row, n)
	for i := range rows {
		r := make(Row, 20)
		for c, v := range []int{i, i % 7, i % 100, 3 * i, i % 13} {
			le.PutUint32(r[4*c:], uint32(v))
		}
		rows[i] = r
	}
	rowSet := loadSet(t, bp, "r", rows)
	schema3 := testSchema()
	schema5 := services.MakeSchema([]string{"id", "group", "amount", "triple", "mod13"}, []int{4, 4, 4, 4, 4})

	type scan struct {
		name  string
		spec  ScanSpec
		ncols int
		sumOf int                 // the column summed over the selection
		keep  func([]uint32) bool // which rows the scan must see
	}
	scans := []scan{
		{"columnar unfiltered", ScanSpec{Set: colSet}, 3, 2, func([]uint32) bool { return true }},
		{"row, 3 columns", ScanSpec{Set: rowSet, Schema: schema3, Pred: ColRange{Col: 1, Lo: 2, Hi: 3}}, 3, 2,
			func(v []uint32) bool { return v[1] == 2 }},
		{"row, 5 columns", ScanSpec{Set: rowSet, Schema: schema5, Pred: ColRange{Col: 4, Lo: 0, Hi: 5}}, 5, 4,
			func(v []uint32) bool { return v[4] < 5 }},
		{"row, selects nothing", ScanSpec{Set: rowSet, Schema: schema5, Pred: ColEq{Col: 3, V: 1}}, 5, 3,
			func([]uint32) bool { return false }},
		{"row unfiltered", ScanSpec{Set: rowSet, Schema: schema5}, 5, 4, func([]uint32) bool { return true }},
	}
	for pass := 0; pass < 2; pass++ {
		for _, sc := range scans {
			var wantN, wantSum, gotN, gotSum uint64
			for _, r := range rows {
				if v := five(r); sc.keep(v) {
					wantN++
					wantSum += uint64(v[sc.sumOf])
				}
			}
			err := sc.spec.RunBatches(func(_ int, b *Batch) error {
				if b.NumCols() != sc.ncols {
					t.Errorf("%s: batch has %d columns, want %d", sc.name, b.NumCols(), sc.ncols)
				}
				col := b.Col(sc.sumOf)
				for _, i := range b.Sel() {
					gotSum += uint64(le.Uint32(col[4*int(i):]))
				}
				gotN += uint64(b.Selected())
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if gotN != wantN || gotSum != wantSum {
				t.Errorf("pass %d, %s: %d rows summing to %d, want %d summing to %d", pass, sc.name, gotN, gotSum, wantN, wantSum)
			}
		}
	}
}

// TestZoneMapPassLeavesIndexAnswerAlone: the zone-map pass filters the
// page list of the microindex's answer in place, which is only sound because
// the list is the scan's own copy. A point probe whose one candidate page the
// zone map then prunes must leave the index answering exactly what it did
// before.
func TestZoneMapPassLeavesIndexAnswerAlone(t *testing.T) {
	bp := newPool(t, 32<<20)
	const n = 20000
	rows := permRows(n)
	set := loadColSet(t, bp, "c", rows)
	ensureBoth(t, set)
	idx := set.SideIndex(services.MicroindexTag).(PointIndex)
	const key = 4242
	before, ok := idx.Lookup(1, key)
	if !ok || len(before) != 1 {
		t.Fatalf("Lookup(1, %d) = %v ok=%v, want one row", key, before, ok)
	}
	before = slices.Clone(before) // were the answer the index's own, the scan would edit this too
	// id (col 0) is clustered, so an id off the key's page is one the zone
	// map's min/max excludes from it.
	var keyID uint32
	for _, r := range rows {
		if rowGroup(r) == key {
			keyID = rowID(r)
		}
	}
	otherID := uint64(0)
	if keyID < n/2 {
		otherID = n - 1
	}
	skips := set.ZoneMapSkips()
	got, err := ScanSpec{Set: set, Pred: And{ColEq{Col: 1, V: key}, ColEq{Col: 0, V: otherID}}}.CountBatches(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 || set.ZoneMapSkips()-skips != 1 {
		t.Fatalf("probe found %d rows with %d pages pruned, want 0 rows and its one candidate pruned", got, set.ZoneMapSkips()-skips)
	}
	if after, _ := idx.Lookup(1, key); !slices.Equal(after, before) {
		t.Errorf("Lookup(1, %d) = %v after the scan, %v before", key, after, before)
	}
}
