package query

import (
	"bytes"
	"testing"
)

// These regression tests drive each sink from a many-threaded scan; run
// under -race they fail if per-thread state is ever shared, and their
// assertions fail if a thread's partial is lost in the merge.

func TestCountParallel(t *testing.T) {
	bp := newPool(t, 8<<20)
	s := loadSet(t, bp, "s", testRows(20000))
	n, err := ScanSpec{Set: s, Threads: 8}.CountBatches(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20000 {
		t.Fatalf("count = %d, want 20000", n)
	}
}

func TestCollectParallel(t *testing.T) {
	bp := newPool(t, 8<<20)
	rows := testRows(10000)
	s := loadSet(t, bp, "s", rows)
	got, err := Collect(ScanSpec{Set: s, Threads: 8}.Iter())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("collected %d rows, want %d", len(got), len(rows))
	}
	// Every id exactly once, rows intact (order across threads is free).
	seen := make(map[uint32]uint32, len(got))
	for _, r := range got {
		seen[rowID(r)] = rowAmount(r)
	}
	if len(seen) != len(rows) {
		t.Fatalf("%d distinct ids, want %d", len(seen), len(rows))
	}
	for _, r := range rows {
		if seen[rowID(r)] != rowAmount(r) {
			t.Fatalf("row %d corrupted: amount %d, want %d", rowID(r), seen[rowID(r)], rowAmount(r))
		}
	}
}

// TestAggBatchesParallelRace: a many-threaded aggregation must produce exact
// group sums — every thread folds into its own hash buffer and key scratch.
func TestAggBatchesParallelRace(t *testing.T) {
	bp := newPool(t, 16<<20)
	rows := testRows(30000)
	s := loadSet(t, bp, "s", rows)
	got, err := ScanSpec{Set: s, Threads: 8, Schema: testSchema()}.AggBatches(bp, "tmp-agg", nil, sumSpec())
	if err != nil {
		t.Fatal(err)
	}
	checkSums(t, got, rows, nil)
}

// TestAggBatchesSpillsPartials: with more groups than the hash pages of a
// small pool can hold at once, pages retire and spill as partial aggregates
// mid-scan, and the merge still finds every group exactly once.
func TestAggBatchesSpillsPartials(t *testing.T) {
	bp := newPool(t, 512<<10)
	rows := testRows(40000)
	s := loadSet(t, bp, "s", rows)
	spec := sumSpec()
	spec.Key = func(b *Batch, row int, dst []byte) []byte { return append(dst, b.Col(0)[row*4:row*4+4]...) }
	got, err := ScanSpec{Set: s, Threads: 2, Schema: testSchema()}.AggBatches(bp, "tmp-agg", nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("%d groups, want one per row (%d)", len(got), len(rows))
	}
	if bp.Stats().Spills.Load() == 0 {
		t.Error("expected hash pages to spill; shrink the pool")
	}
}

// TestAggBatchesPropagatesError: a failure inside the sink — here a key no
// hash page can hold — surfaces from AggBatches, and the temp set is dropped
// on that path too.
func TestAggBatchesPropagatesError(t *testing.T) {
	bp := newPool(t, 8<<20)
	s := loadSet(t, bp, "s", testRows(100))
	spec := sumSpec()
	huge := bytes.Repeat([]byte{7}, 512<<10)
	spec.Key = func(_ *Batch, _ int, dst []byte) []byte { return append(dst, huge...) }
	if _, err := (ScanSpec{Set: s, Threads: 4, Schema: testSchema()}).AggBatches(bp, "tmp-agg", nil, spec); err == nil {
		t.Error("aggregating under a key larger than a hash page must error")
	}
	noTempSets(t, bp, "after a failed AggBatches")
}
