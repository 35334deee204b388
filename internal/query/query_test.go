package query

import (
	"encoding/binary"
	"fmt"
	"testing"

	"pangea/internal/cluster"
	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/services"
)

func newPool(t *testing.T, mem int64) *core.BufferPool {
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

func TestScanFilterCount(t *testing.T) {
	bp := newPool(t, 4<<20)
	s := loadSet(t, bp, "rows", testRows(1000))
	even := Filter(ScanSpec{Set: s, Threads: 3}.Iter(), func(r Row) bool { return rowID(r)%2 == 0 })
	n, err := Count(even)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Errorf("count = %d, want 500", n)
	}
}

func TestFlattenExpandsRows(t *testing.T) {
	bp := newPool(t, 4<<20)
	s := loadSet(t, bp, "rows", testRows(50))
	dup := Flatten(ScanSpec{Set: s}.Iter(), func(r Row, out func(Row) error) error {
		if err := out(r); err != nil {
			return err
		}
		return out(r)
	})
	n, err := Count(dup)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("count = %d, want 100", n)
	}
}

func TestMapTransforms(t *testing.T) {
	bp := newPool(t, 4<<20)
	s := loadSet(t, bp, "rows", testRows(10))
	doubled := Map(ScanSpec{Set: s}.Iter(), func(r Row) (Row, error) {
		out := append(Row(nil), r...)
		binary.LittleEndian.PutUint32(out[8:12], rowAmount(r)*2)
		return out, nil
	})
	rows, err := Collect(doubled)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if rowAmount(r) != (rowID(r)%100)*2 {
			t.Errorf("row %d amount = %d", rowID(r), rowAmount(r))
		}
	}
}

func sumSpec() AggSpec {
	return AggSpec{
		Key: func(r Row) []byte { return r[4:8] },
		// Accumulator: [sum u64][count u64]
		ValSize: 16,
		Init: func(r Row, val []byte) {
			binary.LittleEndian.PutUint64(val[0:8], uint64(rowAmount(r)))
			binary.LittleEndian.PutUint64(val[8:16], 1)
		},
		Combine: func(dst, src []byte) {
			binary.LittleEndian.PutUint64(dst[0:8], binary.LittleEndian.Uint64(dst[0:8])+binary.LittleEndian.Uint64(src[0:8]))
			binary.LittleEndian.PutUint64(dst[8:16], binary.LittleEndian.Uint64(dst[8:16])+binary.LittleEndian.Uint64(src[8:16]))
		},
	}
}

func TestAggregateMatchesReference(t *testing.T) {
	bp := newPool(t, 8<<20)
	rows := testRows(5000)
	s := loadSet(t, bp, "rows", rows)

	wantSum := make(map[uint32]uint64)
	wantCnt := make(map[uint32]uint64)
	for _, r := range rows {
		wantSum[rowGroup(r)] += uint64(rowAmount(r))
		wantCnt[rowGroup(r)]++
	}

	got, err := Aggregate(ScanSpec{Set: s, Threads: 2}.Iter(), bp, "agg-tmp", sumSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("groups = %d, want 7", len(got))
	}
	for k, v := range got {
		g := binary.LittleEndian.Uint32([]byte(k))
		sum := binary.LittleEndian.Uint64(v[0:8])
		cnt := binary.LittleEndian.Uint64(v[8:16])
		if sum != wantSum[g] || cnt != wantCnt[g] {
			t.Errorf("group %d: sum=%d cnt=%d, want %d/%d", g, sum, cnt, wantSum[g], wantCnt[g])
		}
	}
}

func TestBroadcastJoin(t *testing.T) {
	bp := newPool(t, 8<<20)
	// Build side: group -> name row [group u32][tag byte].
	var build []Row
	for g := uint32(0); g < 7; g++ {
		r := make(Row, 5)
		binary.LittleEndian.PutUint32(r[0:4], g)
		r[4] = byte('a' + g)
		build = append(build, r)
	}
	bs := loadSet(t, bp, "dim", build)
	probe := loadSet(t, bp, "fact", testRows(700))

	mapSet, err := bp.CreateSet(core.SetSpec{Name: "joinmap", PageSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildBroadcastMap(ScanSpec{Set: bs}.Iter(), mapSet, func(r Row) []byte { return r[0:4] })
	if err != nil {
		t.Fatal(err)
	}
	joined := HashJoin(ScanSpec{Set: probe, Threads: 2}.Iter(), m, func(r Row) []byte { return r[4:8] },
		func(pr, br Row) Row {
			out := make(Row, 13)
			copy(out, pr)
			out[12] = br[4]
			return out
		})
	rows, err := Collect(joined)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 700 {
		t.Fatalf("joined rows = %d, want 700", len(rows))
	}
	for _, r := range rows {
		if r[12] != byte('a'+rowGroup(r)) {
			t.Errorf("row %d joined wrong dim tag %c", rowID(r), r[12])
		}
	}
}

func TestSemiAndAntiJoin(t *testing.T) {
	bp := newPool(t, 8<<20)
	var build []Row
	for g := uint32(0); g < 3; g++ { // groups 0..2 exist
		r := make(Row, 4)
		binary.LittleEndian.PutUint32(r, g)
		build = append(build, r)
	}
	bs := loadSet(t, bp, "dim", build)
	probe := loadSet(t, bp, "fact", testRows(700)) // groups 0..6

	mapSet, _ := bp.CreateSet(core.SetSpec{Name: "jm", PageSize: 64 << 10})
	m, err := BuildBroadcastMap(ScanSpec{Set: bs}.Iter(), mapSet, func(r Row) []byte { return r[0:4] })
	if err != nil {
		t.Fatal(err)
	}
	probeKey := func(r Row) []byte { return r[4:8] }
	semi, err := Count(SemiJoin(ScanSpec{Set: probe}.Iter(), m, probeKey))
	if err != nil {
		t.Fatal(err)
	}
	anti, err := Count(AntiJoin(ScanSpec{Set: probe}.Iter(), m, probeKey))
	if err != nil {
		t.Fatal(err)
	}
	if semi+anti != 700 {
		t.Errorf("semi %d + anti %d != 700", semi, anti)
	}
	if semi != 300 { // groups 0,1,2 of 0..6 -> 3/7 of 700
		t.Errorf("semi = %d, want 300", semi)
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	bp := newPool(t, 8<<20)
	s := loadSet(t, bp, "in", testRows(300))
	out, err := bp.CreateSet(core.SetSpec{Name: "out", PageSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Materialize(Filter(ScanSpec{Set: s, Threads: 2}.Iter(), func(r Row) bool { return rowGroup(r) == 0 }), out)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Count(ScanSpec{Set: out}.Iter())
	if err != nil {
		t.Fatal(err)
	}
	if n != m {
		t.Errorf("materialized %d but re-scan found %d", n, m)
	}
}

// --- distributed executor tests --------------------------------------------

const testKey = "query-test-key"

func startExec(t *testing.T, nodes int) *Executor {
	t.Helper()
	mgr, err := cluster.NewManager("127.0.0.1:0", testKey)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mgr.Close() })
	cl := cluster.NewClient(mgr.Addr(), testKey)
	var workers []*cluster.Worker
	for i := 0; i < nodes; i++ {
		w, err := cluster.NewWorker("127.0.0.1:0", cluster.WorkerConfig{
			PrivateKey: testKey, Memory: 16 << 20, DiskDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		if _, err := cl.RegisterWorker(w.Addr()); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	return NewExecutor(cl, workers, 2)
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
	err := e.Exchange("exd", func(node int) Iter {
		return func(emit func(Row) error) error {
			s, err := e.Set(node, "src")
			if err != nil {
				return err
			}
			return ScanSpec{Set: s, Threads: 2}.Iter()(emit)
		}
	}, key, 64<<10)
	if err != nil {
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
		rows, err := Collect(ScanSpec{Set: s}.Iter())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
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

func TestBroadcastReplicatesEverywhere(t *testing.T) {
	e := startExec(t, 3)
	rows := testRows(90)
	loadDistributed(t, e, "dim", rows)
	if err := e.Broadcast("dim", "dim-b", 64<<10); err != nil {
		t.Fatal(err)
	}
	for node := range e.Workers {
		s, err := e.Set(node, "dim-b")
		if err != nil {
			t.Fatal(err)
		}
		n, err := Count(ScanSpec{Set: s}.Iter())
		if err != nil {
			t.Fatal(err)
		}
		if n != 90 {
			t.Errorf("node %d broadcast copy has %d rows, want 90", node, n)
		}
	}
}

func TestDistributedAggregate(t *testing.T) {
	e := startExec(t, 3)
	rows := testRows(3000)
	loadDistributed(t, e, "fact", rows)
	got, err := e.DistributedAggregate("t", func(node int) Iter {
		return func(emit func(Row) error) error {
			s, err := e.Set(node, "fact")
			if err != nil {
				return err
			}
			return ScanSpec{Set: s, Threads: 2}.Iter()(emit)
		}
	}, sumSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("groups = %d, want 7", len(got))
	}
	var totalCnt uint64
	for _, v := range got {
		totalCnt += binary.LittleEndian.Uint64(v[8:16])
	}
	if totalCnt != 3000 {
		t.Errorf("total count = %d, want 3000", totalCnt)
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

func ExampleFilter() {
	pred := func(r Row) bool { return len(r) > 0 && r[0] == 'x' }
	in := Iter(func(emit func(Row) error) error {
		for _, s := range []string{"x1", "y2", "x3"} {
			if err := emit(Row(s)); err != nil {
				return err
			}
		}
		return nil
	})
	n, _ := Count(Filter(in, pred))
	fmt.Println(n)
	// Output: 2
}
