package query

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"testing"

	"pangea/internal/core"
	"pangea/internal/services"
)

// loadColSet mirrors loadSet with the mkRow schema declared columnar:
// three u32 columns (id, group, amount).
func loadColSet(t *testing.T, bp *core.BufferPool, name string, rows []Row) *core.LocalitySet {
	t.Helper()
	s, err := bp.CreateSet(core.SetSpec{
		Name: name, PageSize: 4 << 10,
		Layout: core.LayoutColumnar, Columns: []int{4, 4, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := services.WriteAll(s, rows); err != nil {
		t.Fatal(err)
	}
	return s
}

// bothLayouts loads rows twice, as a row set (scanned under testSchema) and
// as a columnar set, and returns one ScanSpec per layout.
func bothLayouts(t *testing.T, bp *core.BufferPool, rows []Row, threads int) map[string]ScanSpec {
	t.Helper()
	return map[string]ScanSpec{
		"row":      {Set: loadSet(t, bp, "r", rows), Threads: threads, Schema: testSchema()},
		"columnar": {Set: loadColSet(t, bp, "c", rows), Threads: threads},
	}
}

// TestScanBatchesMatchesRowScan: a multi-threaded batch scan visits every
// row exactly once on either layout, with column accessors agreeing with the
// row decode. Run under -race this is the multi-threaded batch-scan
// regression test.
func TestScanBatchesMatchesRowScan(t *testing.T) {
	bp := newPool(t, 8<<20)
	rows := testRows(5000)
	var wantID, wantAmount int64
	for _, r := range rows {
		wantID += int64(rowID(r))
		wantAmount += int64(rowAmount(r))
	}
	for layout, spec := range bothLayouts(t, bp, rows, 4) {
		var n, idSum, amountSum atomic.Int64
		err := spec.RunBatches(func(_ int, b *Batch) error {
			if b.NumCols() != 3 || b.Width(0) != 4 {
				t.Errorf("%s batch shape: %d cols, width0 %d", layout, b.NumCols(), b.Width(0))
			}
			ids := b.Col(0)
			for i := 0; i < b.NumRows(); i++ {
				idSum.Add(int64(binary.LittleEndian.Uint32(ids[i*4:])))
				amountSum.Add(int64(b.U32(2, i)))
			}
			n.Add(int64(b.NumRows()))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n.Load() != int64(len(rows)) || idSum.Load() != wantID || amountSum.Load() != wantAmount {
			t.Errorf("%s batch scan: n=%d idSum=%d amountSum=%d, want %d/%d/%d",
				layout, n.Load(), idSum.Load(), amountSum.Load(), int64(len(rows)), wantID, wantAmount)
		}
	}
}

// TestSelectionKernels: each kernel narrows the selection like the
// equivalent row predicate, and kernels compose (each narrows the previous
// selection).
func TestSelectionKernels(t *testing.T) {
	bp := newPool(t, 8<<20)
	rows := testRows(4000)
	s := loadColSet(t, bp, "c", rows)

	count := func(filter func(*Batch), pred func(Row) bool) (int64, int64) {
		var stage Stage
		if filter != nil {
			stage = func(_ int, b *Batch) (*Batch, error) { filter(b); return b, nil }
		}
		got, err := ScanSpec{Set: s, Threads: 3}.CountBatches(stage)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, r := range rows {
			if pred(r) {
				want++
			}
		}
		return got, want
	}

	if got, want := count(
		func(b *Batch) { b.SelU32Range(2, 10, 40) },
		func(r Row) bool { return rowAmount(r) >= 10 && rowAmount(r) < 40 },
	); got != want {
		t.Errorf("SelU32Range: %d, want %d", got, want)
	}
	if got, want := count(
		func(b *Batch) {
			b.SelU32Range(1, 2, 3) // group == 2
			b.SelU32Range(2, 0, 50)
		},
		func(r Row) bool { return rowGroup(r) == 2 && rowAmount(r) < 50 },
	); got != want {
		t.Errorf("composed kernels: %d, want %d", got, want)
	}
	if got, want := count(
		func(b *Batch) {
			FilterBatch(b, func(b *Batch, row int) bool { return b.U32(0, row)%3 == 0 })
		},
		func(r Row) bool { return rowID(r)%3 == 0 },
	); got != want {
		t.Errorf("FilterBatch: %d, want %d", got, want)
	}
	if got, want := count(nil, func(Row) bool { return true }); got != want {
		t.Errorf("unfiltered count: %d, want %d", got, want)
	}
}

// TestAggBatchesMatchesRowAggregate: the scan-filter-aggregate pipeline
// computes, on either layout, the groups a plain map over the same rows does.
func TestAggBatchesMatchesRowAggregate(t *testing.T) {
	bp := newPool(t, 8<<20)
	rows := testRows(3000)
	for layout, spec := range bothLayouts(t, bp, rows, 3) {
		got, err := spec.AggBatches(bp, "tmp-agg", func(_ int, b *Batch) (*Batch, error) {
			b.SelU32Range(2, 0, 30)
			return b, nil
		}, sumSpec())
		if err != nil {
			t.Fatalf("%s: %v", layout, err)
		}
		checkSums(t, got, rows, func(r Row) bool { return rowAmount(r) < 30 })
	}
}

// TestProjectBatch: late materialization emits exactly the selected rows,
// byte-identical to the original records.
func TestProjectBatch(t *testing.T) {
	bp := newPool(t, 8<<20)
	rows := testRows(1000)
	byID := make(map[uint32]Row, len(rows))
	for _, r := range rows {
		byID[rowID(r)] = r
	}
	var emitted atomic.Int64
	specs := bothLayouts(t, bp, rows, 2)
	err := specs["columnar"].RunBatches(func(_ int, b *Batch) error {
		b.SelU32Range(1, 5, 6) // group == 5
		return ProjectBatch(b, func(r Row) error {
			want := byID[rowID(r)]
			if rowGroup(r) != 5 || !bytes.Equal(r, want) {
				t.Errorf("materialized row %x, want %x", r, want)
			}
			emitted.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, r := range rows {
		if rowGroup(r) == 5 {
			want++
		}
	}
	if emitted.Load() != want {
		t.Errorf("projected %d rows, want %d", emitted.Load(), want)
	}
	// The row adapter is ProjectBatch under the predicate.
	emitted.Store(0)
	for _, spec := range specs {
		spec.Pred = ColEq{Col: 1, V: 5}
		err := spec.Run(func(_ int, r Row) error {
			if !bytes.Equal(r, byID[rowID(r)]) {
				t.Errorf("Run emitted %x, want %x", r, byID[rowID(r)])
			}
			emitted.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if emitted.Load() != 2*want {
		t.Errorf("Run emitted %d rows over both layouts, want %d", emitted.Load(), 2*want)
	}
}
