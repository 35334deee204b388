package query

import (
	"encoding/binary"
	"testing"
)

// The sinks below used to serialize every emitted row behind one mutex
// (and LocalAggregate shared one scratch buffer across threads under it).
// These regression tests drive each sink from a many-threaded Scan; run
// under -race they fail if per-thread partials ever share state, and their
// assertions fail if a partial is lost in the merge.

func TestCountParallel(t *testing.T) {
	bp := newPool(t, 8<<20)
	s := loadSet(t, bp, "s", testRows(20000))
	n, err := Count(ScanSpec{Set: s, Threads: 8}.Iter())
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

// TestLocalAggregateParallelRace: a many-threaded aggregation must produce
// exact group sums. Before the per-thread accumulator fix, all threads
// zeroed and filled one shared val buffer, so -race flags the old design
// and lost updates skew the sums.
func TestLocalAggregateParallelRace(t *testing.T) {
	bp := newPool(t, 16<<20)
	rows := testRows(30000)
	s := loadSet(t, bp, "s", rows)
	spec := AggSpec{
		Key:     func(r Row) []byte { return r[4:8] },
		ValSize: 16,
		Init: func(r Row, val []byte) {
			binary.LittleEndian.PutUint64(val[0:8], uint64(rowAmount(r)))
			binary.LittleEndian.PutUint64(val[8:16], 1)
		},
		Combine: func(dst, src []byte) {
			binary.LittleEndian.PutUint64(dst[0:8],
				binary.LittleEndian.Uint64(dst[0:8])+binary.LittleEndian.Uint64(src[0:8]))
			binary.LittleEndian.PutUint64(dst[8:16],
				binary.LittleEndian.Uint64(dst[8:16])+binary.LittleEndian.Uint64(src[8:16]))
		},
	}
	got, err := Aggregate(ScanSpec{Set: s, Threads: 8}.Iter(), bp, "agg", spec)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := make(map[uint32]uint64)
	wantCnt := make(map[uint32]uint64)
	for _, r := range rows {
		wantSum[rowGroup(r)] += uint64(rowAmount(r))
		wantCnt[rowGroup(r)]++
	}
	if len(got) != len(wantSum) {
		t.Fatalf("%d groups, want %d", len(got), len(wantSum))
	}
	for k, v := range got {
		g := binary.LittleEndian.Uint32([]byte(k))
		sum := binary.LittleEndian.Uint64(v[0:8])
		cnt := binary.LittleEndian.Uint64(v[8:16])
		if sum != wantSum[g] || cnt != wantCnt[g] {
			t.Errorf("group %d: sum/cnt %d/%d, want %d/%d", g, sum, cnt, wantSum[g], wantCnt[g])
		}
	}
}

// TestPartialsPropagatesError: an error from the sink body must surface,
// not vanish into a pooled state.
func TestPartialsPropagatesError(t *testing.T) {
	bp := newPool(t, 8<<20)
	s := loadSet(t, bp, "s", testRows(100))
	spec := AggSpec{
		Key:     func(r Row) []byte { return r[0:4] },
		ValSize: 4,
		Init:    func(Row, []byte) {},
		Combine: func([]byte, []byte) {},
	}
	// Aggregating into a dropped set makes every thread's hash-page
	// allocation fail; LocalAggregate must report it, not swallow it in a
	// pooled partial.
	dead := loadSet(t, bp, "dead", nil)
	if err := bp.DropSet(dead); err != nil {
		t.Fatal(err)
	}
	if _, err := LocalAggregate(ScanSpec{Set: s, Threads: 4}.Iter(), dead, 4, spec); err == nil {
		t.Error("LocalAggregate into a dropped set must error")
	}
}
