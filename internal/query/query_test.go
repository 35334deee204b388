package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pangea/internal/cluster"
	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/placement"
	"pangea/internal/services"
)

func newPool(t testing.TB, mem int64) *core.BufferPool {
	t.Helper()
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	bp, err := core.NewPool(core.PoolConfig{Memory: mem, Array: arr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	return bp
}

func loadSet(t *testing.T, bp *core.BufferPool, name string, rows []Row) *core.LocalitySet {
	t.Helper()
	s, err := bp.CreateSet(core.SetSpec{Name: name, PageSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := services.WriteAll(s, rows); err != nil {
		t.Fatal(err)
	}
	return s
}

// withDetached runs fn with the side indexes under tags taken off the set,
// then puts them back: a scan prunes by the indexes the set carries, so this
// is how a test scans it without some of them.
func withDetached(set *core.LocalitySet, tags []string, fn func()) {
	saved := make([]any, len(tags))
	for i, tag := range tags {
		saved[i] = set.SideIndex(tag)
		set.SetSideIndex(tag, nil)
	}
	defer func() {
		for i, tag := range tags {
			set.SetSideIndex(tag, saved[i])
		}
	}()
	fn()
}

// unpruned and zoneMapOnly are the tags withDetached takes off for a scan
// that prunes nothing and for one that prunes by the zone map alone.
var (
	unpruned    = []string{services.MicroindexTag, services.ZoneMapTag}
	zoneMapOnly = []string{services.MicroindexTag}
)

// row encodes (id, group, amount).
func mkRow(id, group, amount uint32) Row {
	r := make(Row, 12)
	binary.LittleEndian.PutUint32(r[0:4], id)
	binary.LittleEndian.PutUint32(r[4:8], group)
	binary.LittleEndian.PutUint32(r[8:12], amount)
	return r
}

func rowID(r Row) uint32     { return binary.LittleEndian.Uint32(r[0:4]) }
func rowGroup(r Row) uint32  { return binary.LittleEndian.Uint32(r[4:8]) }
func rowAmount(r Row) uint32 { return binary.LittleEndian.Uint32(r[8:12]) }

func testRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = mkRow(uint32(i), uint32(i%7), uint32(i%100))
	}
	return rows
}

// TestScanFilterCount: a residual row filter after a multi-threaded scan of
// a row set keeps exactly the rows it should.
func TestScanFilterCount(t *testing.T) {
	bp := newPool(t, 4<<20)
	s := loadSet(t, bp, "rows", testRows(1000))
	n, err := ScanSpec{Set: s, Threads: 3, Schema: testSchema()}.CountBatches(func(_ int, b *Batch) (*Batch, error) {
		FilterBatch(b, func(b *Batch, row int) bool { return b.U32(0, row)%2 == 0 })
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Errorf("count = %d, want 500", n)
	}
}

// sumSpec groups by the group column and accumulates [sum][count] of the
// amount column.
func sumSpec() Agg { return Agg{Keys: []int{1}, Folds: []Fold{Sum(2), Count()}} }

// checkSums compares a sumSpec result with the map reference over rows.
func checkSums(t *testing.T, got map[string][]byte, rows []Row, keep func(Row) bool) {
	t.Helper()
	wantSum := make(map[uint32]float64)
	wantCnt := make(map[uint32]float64)
	for _, r := range rows {
		if keep == nil || keep(r) {
			wantSum[rowGroup(r)] += float64(rowAmount(r))
			wantCnt[rowGroup(r)]++
		}
	}
	if len(got) != len(wantSum) {
		t.Fatalf("%d groups, want %d", len(got), len(wantSum))
	}
	for k, v := range got {
		g := binary.LittleEndian.Uint32([]byte(k))
		if sum, cnt := f64(v[0:8]), f64(v[8:16]); sum != wantSum[g] || cnt != wantCnt[g] {
			t.Errorf("group %d: sum=%v cnt=%v, want %v/%v", g, sum, cnt, wantSum[g], wantCnt[g])
		}
	}
}

// noTempSets fails the test if the pool still holds a set whose name starts
// with "tmp".
func noTempSets(t *testing.T, bp *core.BufferPool, where string) {
	t.Helper()
	for _, s := range bp.Sets() {
		if strings.HasPrefix(s.Name(), "tmp") {
			t.Errorf("%s: temp set %q left behind", where, s.Name())
		}
	}
}

func TestAggregateMatchesReference(t *testing.T) {
	bp := newPool(t, 8<<20)
	rows := testRows(5000)
	s := loadSet(t, bp, "rows", rows)
	got, err := ScanSpec{Set: s, Threads: 2, Schema: testSchema()}.AggBatches(bp, "tmp-agg", nil, sumSpec())
	if err != nil {
		t.Fatal(err)
	}
	checkSums(t, got, rows, nil)
	noTempSets(t, bp, "after AggBatches")
}

func TestMaterializeRoundTrip(t *testing.T) {
	bp := newPool(t, 8<<20)
	s := loadSet(t, bp, "in", testRows(300))
	out, err := bp.CreateSet(core.SetSpec{Name: "out", PageSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// A SeqWriter is one thread's, so the scan's two threads take turns at it.
	w := services.NewSeqWriter(out)
	var mu sync.Mutex
	err = ScanSpec{Set: s, Threads: 2, Schema: testSchema(), Pred: ColEq{Col: 1, V: 0}}.Run(func(_ int, r Row) error {
		mu.Lock()
		defer mu.Unlock()
		return w.Add(r)
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	n := w.Count()
	m, err := ScanSpec{Set: out}.CountBatches(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(300/7 + 1); n != want || m != want {
		t.Errorf("materialized %d, re-scan found %d, want %d", n, m, want)
	}
}

// --- distributed executor tests --------------------------------------------

const testKey = "query-test-key"

func startExec(t *testing.T, nodes int) *Executor {
	t.Helper()
	l, err := cluster.StartLocal(testKey, nodes, func(int) cluster.WorkerConfig {
		return cluster.WorkerConfig{Memory: 16 << 20, DiskDir: t.TempDir()}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return NewExecutor(l.Client, l.Workers, 2)
}

func loadDistributed(t *testing.T, e *Executor, name string, rows []Row) {
	t.Helper()
	if err := e.Client.CreateSet(name, 64<<10, uint8(core.WriteBack)); err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		node := i % len(e.Workers)
		if err := e.Client.AddRecords(e.Addrs[node], name, [][]byte{r}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExchangeCoPartitions(t *testing.T) {
	e := startExec(t, 3)
	rows := testRows(600)
	loadDistributed(t, e, "src", rows)
	key := func(r Row) []byte { return r[4:8] }
	if err := e.Exchange("exd", scanSource(e, "src", nil), key, 64<<10); err != nil {
		t.Fatal(err)
	}
	// After the exchange, all rows of one group live on one node.
	groupNode := make(map[uint32]int)
	var total int
	for node := range e.Workers {
		s, err := e.Set(node, "exd")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range collect(t, ScanSpec{Set: s}) {
			total++
			g := rowGroup(r)
			if prev, ok := groupNode[g]; ok && prev != node {
				t.Errorf("group %d split across nodes %d and %d", g, prev, node)
			}
			groupNode[g] = node
		}
	}
	if total != 600 {
		t.Errorf("exchanged %d rows, want 600", total)
	}
}

// scanSource streams each node's partition of set, keeping the rows keep
// accepts (nil keeps all).
func scanSource(e *Executor, set string, keep func(Row) bool) func(node int) Iter {
	return func(node int) Iter {
		return func(emit func(Row) error) error {
			s, err := e.Set(node, set)
			if err != nil {
				return err
			}
			return ScanSpec{Set: s, Threads: 2}.Run(func(_ int, r Row) error {
				if keep != nil && !keep(r) {
					return nil
				}
				return emit(r)
			})
		}
	}
}

// TestBroadcastReplicatesEverywhere: every node ends up with exactly the
// multiset of rows the sources emitted — a whole source of several send
// batches spread over three nodes, a filtered one, and one that emits
// nothing, which leaves an empty set everywhere.
func TestBroadcastReplicatesEverywhere(t *testing.T) {
	e := startExec(t, 3)
	rows := make([][]byte, 3000) // 3 MB, so batches also ship mid-stream
	for i := range rows {
		rows[i] = make([]byte, 1024)
		binary.LittleEndian.PutUint32(rows[i], uint32(i/2)) // every row twice
	}
	if err := e.Client.CreateSet("dim", 64<<10, uint8(core.WriteBack)); err != nil {
		t.Fatal(err)
	}
	if err := placement.DispatchRandom(e.Client, e.Addrs, "dim", rows); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		keep func(Row) bool
	}{
		{"all", nil},
		{"filtered", func(r Row) bool { return rowID(r)%3 == 0 }},
		{"none", func(Row) bool { return false }},
	} {
		want := make(map[uint32]int)
		for _, r := range rows {
			if tc.keep == nil || tc.keep(r) {
				want[rowID(r)]++
			}
		}
		target := "dim-" + tc.name
		if err := e.Broadcast(target, scanSource(e, "dim", tc.keep), 64<<10); err != nil {
			t.Fatal(err)
		}
		for node := range e.Workers {
			s, err := e.Set(node, target)
			if err != nil {
				t.Fatal(err)
			}
			counts := make(map[uint32]int)
			err = ScanSpec{Set: s}.Run(func(_ int, r Row) error {
				if len(r) != 1024 {
					return fmt.Errorf("row of %d bytes", len(r))
				}
				counts[rowID(r)]++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(counts, want) {
				t.Errorf("%s: node %d holds %d distinct rows, not the %d emitted, each as often", tc.name, node, len(counts), len(want))
			}
		}
	}
}

// TestDistributedMergeOfLocalAggregates: the two aggregation stages across
// a cluster — AggBatches per node, DistributedMerge at the coordinator.
func TestDistributedMergeOfLocalAggregates(t *testing.T) {
	e := startExec(t, 3)
	rows := testRows(3000)
	loadDistributed(t, e, "fact", rows)
	spec := sumSpec()
	got, err := e.DistributedMerge(func(node int, w *cluster.Worker) (map[string][]byte, error) {
		s, err := e.Set(node, "fact")
		if err != nil {
			return nil, err
		}
		return ScanSpec{Set: s, Threads: 2, Schema: testSchema()}.AggBatches(w.Pool(), "tmp-agg", nil, spec)
	}, spec.Combine)
	if err != nil {
		t.Fatal(err)
	}
	checkSums(t, got, rows, nil)
}

// failingSource emits a few rows of a node's "src" partition and then fails.
func failingSource(e *Executor) func(node int) Iter {
	return func(node int) Iter {
		return func(emit func(Row) error) error {
			s, err := e.Set(node, "src")
			if err != nil {
				return err
			}
			var n atomic.Int64
			return ScanSpec{Set: s}.Run(func(_ int, r Row) error {
				if n.Add(1) > 20 {
					return errors.New("source failed mid-stream")
				}
				return emit(r)
			})
		}
	}
}

// TestExchangeAndBroadcastDropTargetOnFailure: both operations create their
// target set on every node first; when they then fail — a source that fails
// mid-stream, or target pages too small for a record — no worker may be left
// holding it.
func TestExchangeAndBroadcastDropTargetOnFailure(t *testing.T) {
	e := startExec(t, 3)
	loadDistributed(t, e, "src", testRows(600))
	err := e.Exchange("tmp-exchanged", failingSource(e), func(r Row) []byte { return r[4:8] }, 64<<10)
	if err == nil {
		t.Fatal("exchange from a failing source must fail")
	}
	if err := e.Broadcast("tmp-broadcast", failingSource(e), 64<<10); err == nil {
		t.Fatal("broadcast from a failing source must fail")
	}
	// A broadcast whose target pages cannot hold one source record fails
	// after the target exists everywhere.
	if err := e.Broadcast("tmp-broadcast", scanSource(e, "src", nil), 16); err == nil {
		t.Fatal("broadcast of 12-byte records onto 16-byte pages must fail")
	}
	for node, w := range e.Workers {
		noTempSets(t, w.Pool(), fmt.Sprintf("node %d", node))
	}
	// The same calls still work, and leave their set, when nothing fails.
	key := func(r Row) []byte { return r[4:8] }
	if err := e.Exchange("tmp-exchanged", scanSource(e, "src", nil), key, 64<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Set(0, "tmp-exchanged"); err != nil {
		t.Error("a successful exchange must leave its set to the caller")
	}
}

func TestChooseReplicaConsultsStatistics(t *testing.T) {
	e := startExec(t, 2)
	if err := e.Client.RegisterReplica("lineitem", "lineitem_pt", "hash(l_partkey)"); err != nil {
		t.Fatal(err)
	}
	set, ok := e.ChooseReplica("lineitem", "hash(l_partkey)")
	if !ok || set != "lineitem_pt" {
		t.Errorf("ChooseReplica = %q, %v; want lineitem_pt, true", set, ok)
	}
	set, ok = e.ChooseReplica("lineitem", "hash(l_suppkey)")
	if ok || set != "lineitem" {
		t.Errorf("missing scheme: got %q, %v; want lineitem, false", set, ok)
	}
}

// TestRunBatchesConsumesShufflePartition: the batch scan reaches a shuffle
// partition through the same cursor as ReadPartition, so it consumes it — the
// rows come back once, and a second scan fails with core.ErrConsumed before
// any batch reaches fn.
func TestRunBatchesConsumesShufflePartition(t *testing.T) {
	bp := newPool(t, 4<<20)
	sh, err := services.NewShuffle(bp, "part", 1, 64<<10, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	bufs := sh.Writer()
	for _, r := range testRows(5000) {
		if err := bufs[0].Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := services.CloseWriters(bufs); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	spec := ScanSpec{Set: sh.Sink(0).Set(), Threads: 2, Schema: testSchema()}
	var rows atomic.Int64
	count := func(_ int, b *Batch) error { rows.Add(int64(b.Selected())); return nil }
	if err := spec.RunBatches(count); err != nil {
		t.Fatal(err)
	}
	if got := rows.Load(); got != 5000 {
		t.Errorf("first scan saw %d rows, want 5000", got)
	}
	if err := spec.RunBatches(count); !errors.Is(err, core.ErrConsumed) {
		t.Errorf("second scan = %v, want core.ErrConsumed", err)
	}
	if got := rows.Load(); got != 5000 {
		t.Errorf("the second scan delivered %d rows of a consumed partition", got-5000)
	}
	if err := sh.Drop(); err != nil {
		t.Fatal(err)
	}
}
