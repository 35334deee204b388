package query

import (
	"sync"
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

// collect copies out every row the scan hands to Run (a row aliases its
// pinned page only until the callback returns). Order across threads is
// unspecified.
func collect(t *testing.T, sp ScanSpec) []Row {
	t.Helper()
	var mu sync.Mutex
	var rows []Row
	if err := sp.Run(func(_ int, r Row) error {
		cp := append(Row(nil), r...)
		mu.Lock()
		rows = append(rows, cp)
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestCollectParallel(t *testing.T) {
	bp := newPool(t, 8<<20)
	rows := testRows(10000)
	s := loadSet(t, bp, "s", rows)
	got := collect(t, ScanSpec{Set: s, Threads: 8})
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
	spec.Keys = []int{0}
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

// TestAggBatchesPropagatesError: a failure inside the sink — here a key
// wider than the 8 bytes a group key packs into — surfaces from AggBatches,
// and the temp set is dropped on that path too.
func TestAggBatchesPropagatesError(t *testing.T) {
	bp := newPool(t, 8<<20)
	s := loadSet(t, bp, "s", testRows(100))
	spec := sumSpec()
	spec.Keys = []int{0, 1, 2}
	if _, err := (ScanSpec{Set: s, Threads: 4, Schema: testSchema()}).AggBatches(bp, "tmp-agg", nil, spec); err == nil {
		t.Error("aggregating under a 12-byte key must error")
	}
	noTempSets(t, bp, "after a failed AggBatches")
}
