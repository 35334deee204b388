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

func TestScanBatchesRejectsRowLayout(t *testing.T) {
	bp := newPool(t, 8<<20)
	s := loadSet(t, bp, "rows", testRows(10))
	if err := (ScanSpec{Set: s, Threads: 2}).RunBatches(func(int, *Batch) error { return nil }); err == nil {
		t.Error("batch scan over a row-layout set must error")
	}
}

// TestScanBatchesMatchesRowScan: a multi-threaded batch scan visits every
// row exactly once, with column accessors agreeing with the row decode.
// Run under -race this is the multi-threaded batch-scan regression test.
func TestScanBatchesMatchesRowScan(t *testing.T) {
	bp := newPool(t, 8<<20)
	rows := testRows(5000)
	s := loadColSet(t, bp, "c", rows)
	var n, idSum, amountSum atomic.Int64
	err := ScanSpec{Set: s, Threads: 4}.RunBatches(func(_ int, b *Batch) error {
		if b.NumCols() != 3 || b.Width(0) != 4 {
			t.Errorf("batch shape: %d cols, width0 %d", b.NumCols(), b.Width(0))
		}
		ids, amounts := b.Col(0), b.Col(2)
		for i := 0; i < b.NumRows(); i++ {
			idSum.Add(int64(binary.LittleEndian.Uint32(ids[i*4:])))
			amountSum.Add(int64(b.U32(2, i)))
			_ = amounts
		}
		n.Add(int64(b.NumRows()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantID, wantAmount int64
	for _, r := range rows {
		wantID += int64(rowID(r))
		wantAmount += int64(rowAmount(r))
	}
	if n.Load() != int64(len(rows)) || idSum.Load() != wantID || amountSum.Load() != wantAmount {
		t.Fatalf("batch scan: n=%d idSum=%d amountSum=%d, want %d/%d/%d",
			n.Load(), idSum.Load(), amountSum.Load(), int64(len(rows)), wantID, wantAmount)
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
		got, err := ScanSpec{Set: s, Threads: 3}.CountBatches(filter)
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

// TestAggBatchesMatchesRowAggregate: the batch scan-filter-agg pipeline
// computes the same groups as the row-path Aggregate over the same data.
func TestAggBatchesMatchesRowAggregate(t *testing.T) {
	bp := newPool(t, 8<<20)
	rows := testRows(3000)
	colSet := loadColSet(t, bp, "c", rows)
	rowSet := loadSet(t, bp, "r", rows)

	rowSpec := AggSpec{
		Key:     func(r Row) []byte { return r[4:8] },
		ValSize: 8,
		Init: func(r Row, val []byte) {
			binary.LittleEndian.PutUint64(val, uint64(rowAmount(r)))
		},
		Combine: func(dst, src []byte) {
			binary.LittleEndian.PutUint64(dst,
				binary.LittleEndian.Uint64(dst)+binary.LittleEndian.Uint64(src))
		},
	}
	pred := func(r Row) bool { return rowAmount(r) < 30 }
	want, err := Aggregate(Filter(ScanSpec{Set: rowSet, Threads: 3}.Iter(), pred), bp, "agg-row", rowSpec)
	if err != nil {
		t.Fatal(err)
	}

	batchSpec := BatchAggSpec{
		Key: func(b *Batch, row int, dst []byte) []byte {
			return append(dst, b.Col(1)[row*4:row*4+4]...)
		},
		ValSize: 8,
		Accumulate: func(b *Batch, row int, val []byte) {
			binary.LittleEndian.PutUint64(val,
				binary.LittleEndian.Uint64(val)+uint64(b.U32(2, row)))
		},
		Combine: rowSpec.Combine,
	}
	got, err := ScanSpec{Set: colSet, Threads: 3}.AggBatches(func(b *Batch) { b.SelU32Range(2, 0, 30) }, batchSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Errorf("group %x: %x, want %x", k, got[k], v)
		}
	}
}

// TestProjectBatch: late materialization emits exactly the selected rows,
// byte-identical to the original records.
func TestProjectBatch(t *testing.T) {
	bp := newPool(t, 8<<20)
	rows := testRows(1000)
	s := loadColSet(t, bp, "c", rows)
	byID := make(map[uint32]Row, len(rows))
	for _, r := range rows {
		byID[rowID(r)] = r
	}
	var emitted atomic.Int64
	err := ScanSpec{Set: s, Threads: 2}.RunBatches(func(_ int, b *Batch) error {
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
}
