package placement

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pangea/internal/cluster"
	"pangea/internal/core"
)

const testKey = "placement-test-key"

// rowSpec is the replica template of the row-layout tests.
var rowSpec = core.SetSpec{PageSize: 64 << 10}

// startCluster stands up n workers. Its cleanup closes them and fails the
// test if a goroutine of the movers or of the cluster — a batch still in
// flight, a handler still serving one — is alive afterwards.
func startCluster(t *testing.T, n int) ([]*cluster.Worker, []string, *cluster.Client) {
	t.Helper()
	l, err := cluster.StartLocal(testKey, n, func(int) cluster.WorkerConfig {
		return cluster.WorkerConfig{Memory: 8 << 20, DiskDir: t.TempDir()}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = l.Close() // a test may have closed a worker already
		checkNoGoroutines(t, 2*time.Second, "pangea/internal/placement.", "pangea/internal/cluster.")
	})
	return l.Workers, l.Addrs, l.Client
}

// checkNoGoroutines fails the test if a goroutine with one of the frames — a
// function's name, or a package's prefix — is alive, the test's own apart.
// grace is how long one that is on its way out is given to leave.
func checkNoGoroutines(t *testing.T, grace time.Duration, frames ...string) {
	t.Helper()
	var leaked []string
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(grace); ; time.Sleep(5 * time.Millisecond) {
		leaked = leaked[:0]
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")[1:] { // [0] is this goroutine
			for _, frame := range frames {
				if strings.Contains(g, frame) && !strings.Contains(g, "testing.tRunner") {
					leaked = append(leaked, g)
					break
				}
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Errorf("%d goroutine(s) outlived their mover:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
}

// mkRecords builds records shaped like tiny lineitems: two int keys and a
// payload, so two different partitioners disagree on placement.
func mkRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := 0; i < n; i++ {
		rec := make([]byte, 24)
		binary.LittleEndian.PutUint64(rec[0:8], uint64(i/4))    // "orderkey": 4 lines per order
		binary.LittleEndian.PutUint64(rec[8:16], uint64(i%997)) // "partkey"
		binary.LittleEndian.PutUint64(rec[16:24], uint64(i))    // unique line id
		recs[i] = rec
	}
	return recs
}

func keyOrder(rec []byte) []byte { return rec[0:8] }
func keyPart(rec []byte) []byte  { return rec[8:16] }

func twoPartitioners(numPartitions int) []*Partitioner {
	return []*Partitioner{
		{Scheme: "hash(orderkey)", NumPartitions: numPartitions, Key: keyOrder},
		{Scheme: "hash(partkey)", NumPartitions: numPartitions, Key: keyPart},
	}
}

// TestBuildGroupRoutesByKey: BuildGroup is §7's partition computation. Each
// record of its replica lands on the node owning its partition, every key
// stays on one node, and the replica holds every record once.
func TestBuildGroupRoutesByKey(t *testing.T) {
	_, addrs, cl := startCluster(t, 3)
	if err := cl.CreateSet("src", 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(600)
	if err := DispatchRandom(cl, addrs, "src", recs); err != nil {
		t.Fatal(err)
	}
	part := &Partitioner{Scheme: "hash(orderkey)", NumPartitions: 12, Key: keyOrder}
	g, err := BuildGroup(cl, addrs, "src", []*Partitioner{part}, rowSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Total != 600 {
		t.Errorf("streamed %d records, want 600", g.Total)
	}
	// Every record on node i must belong to a partition owned by node i,
	// and all records with one key must share a node (co-location).
	keyNode := make(map[uint64]int)
	seen := make(map[uint64]bool)
	for i, addr := range addrs {
		err := cl.FetchSet(addr, g.Members[1].Set, func(rec []byte) error {
			node := part.NodeOf(rec, len(addrs))
			if node != i {
				t.Errorf("record on node %d belongs to node %d", i, node)
			}
			k := binary.LittleEndian.Uint64(rec[0:8])
			if prev, ok := keyNode[k]; ok && prev != i {
				t.Errorf("key %d split across nodes %d and %d", k, prev, i)
			}
			keyNode[k] = i
			id := binary.LittleEndian.Uint64(rec[16:24])
			if seen[id] {
				t.Errorf("record %d stored twice", id)
			}
			seen[id] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 600 {
		t.Errorf("replica holds %d records, want 600", len(seen))
	}
}

func TestBuildGroupRegistersReplicas(t *testing.T) {
	_, addrs, cl := startCluster(t, 3)
	if err := cl.CreateSet("tbl", 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(900)
	if err := DispatchRandom(cl, addrs, "tbl", recs); err != nil {
		t.Fatal(err)
	}
	g, err := BuildGroup(cl, addrs, "tbl", twoPartitioners(12), rowSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Total != 900 {
		t.Errorf("Total = %d, want 900", g.Total)
	}
	group, err := cl.Replicas("tbl")
	if err != nil {
		t.Fatal(err)
	}
	if len(group) != 3 {
		t.Fatalf("replica group = %d members, want 3", len(group))
	}
	// Each replica holds the full dataset.
	for _, m := range g.Members[1:] {
		n, err := CountSet(cl, addrs, m.Set)
		if err != nil {
			t.Fatal(err)
		}
		if n != 900 {
			t.Errorf("replica %s holds %d records, want 900", m.Set, n)
		}
	}
	// Colliding ratio should be near 1/k^2 for two independent hash
	// organizations plus the random source on k=3 nodes... the paper
	// reports "small"; just sanity-bound it.
	if r := g.CollidingRatio(); r > 0.5 {
		t.Errorf("colliding ratio %.3f implausibly high", r)
	}
}

func TestCollidingCountMatchesDirectCheck(t *testing.T) {
	_, addrs, cl := startCluster(t, 3)
	if err := cl.CreateSet("t", 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(500)
	if err := DispatchRandom(cl, addrs, "t", recs); err != nil {
		t.Fatal(err)
	}
	parts := twoPartitioners(9)
	g, err := BuildGroup(cl, addrs, "t", parts, rowSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := CountColliding(recs, parts, 3)
	if g.NumColliding != want {
		t.Errorf("BuildGroup found %d colliding, direct count %d", g.NumColliding, want)
	}
	got, err := CountSet(cl, addrs, g.Colliding)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("colliding set holds %d records, want %d", got, want)
	}
}

// TestCollidingRatioDeclinesWithClusterSize reproduces the §7 observation:
// the colliding ratio falls sharply as nodes are added (≈9% at 10 nodes,
// ≈3% at 20, ~0 at 30 for the paper's two-partitioning lineitem).
func TestCollidingRatioDeclinesWithClusterSize(t *testing.T) {
	recs := mkRecords(20000)
	parts := twoPartitioners(120)
	var ratios []float64
	for _, k := range []int{10, 20, 30} {
		n := CountColliding(recs, parts, k)
		ratios = append(ratios, float64(n)/float64(len(recs)))
	}
	if !(ratios[0] > ratios[1] && ratios[1] > ratios[2]) {
		t.Errorf("ratios %v do not decline with cluster size", ratios)
	}
	// Three organizations (source + two partitionings) on k nodes collide
	// with probability ~1/k² under independence.
	for i, k := range []int{10, 20, 30} {
		expect := 1 / float64(k*k)
		if ratios[i] > expect*6 {
			t.Errorf("k=%d: ratio %.5f far above expectation %.5f", k, ratios[i], expect)
		}
	}
}

// TestCollisionExpectationProperty checks the n/k estimate of §7 for a
// 2-member group (source + one random partitioning): the expected number of
// colliding objects is n/k.
func TestCollisionExpectationProperty(t *testing.T) {
	f := func(seed uint32) bool {
		const n, k = 4000, 8
		recs := make([][]byte, n)
		for i := range recs {
			rec := make([]byte, 16)
			binary.LittleEndian.PutUint64(rec[0:8], uint64(i)*2654435761+uint64(seed))
			binary.LittleEndian.PutUint64(rec[8:16], uint64(i))
			recs[i] = rec
		}
		parts := []*Partitioner{{Scheme: "hash(a)", NumPartitions: 64, Key: func(r []byte) []byte { return r[0:8] }}}
		got := float64(CountColliding(recs, parts, k))
		want := float64(n) / float64(k)
		// Allow 5 standard deviations of binomial(n, 1/k).
		sd := math.Sqrt(float64(n) * (1.0 / k) * (1 - 1.0/k))
		return math.Abs(got-want) < 5*sd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestRecoverSingleNodeFailure(t *testing.T) {
	workers, addrs, cl := startCluster(t, 4)
	if err := cl.CreateSet("li", 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(1200)
	if err := DispatchRandom(cl, addrs, "li", recs); err != nil {
		t.Fatal(err)
	}
	g, err := BuildGroup(cl, addrs, "li", twoPartitioners(16), rowSpec, 1)
	if err != nil {
		t.Fatal(err)
	}

	const failed = 2
	// Count what the failed node held per member (these records are lost).
	lost := make(map[string]int64)
	for _, m := range g.Members {
		if err := cl.FetchSet(addrs[failed], m.Set, func([]byte) error {
			lost[m.Set]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Fail the node.
	if err := workers[failed].Close(); err != nil {
		t.Fatal(err)
	}
	survivors := make([]string, 0, 3)
	for i, a := range addrs {
		if i != failed {
			survivors = append(survivors, a)
		}
	}

	reports, err := Recover(cl, addrs, g, []int{failed})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		surv, err := CountSet(cl, survivors, rep.Member)
		if err != nil {
			t.Fatal(err)
		}
		if surv != 1200 {
			t.Errorf("member %s: %d records after recovery, want 1200 (lost %d, recovered %d)",
				rep.Member, surv, lost[rep.Member], rep.Recovered())
		}
		if rep.Recovered() != lost[rep.Member] {
			t.Errorf("member %s: recovered %d, lost %d", rep.Member, rep.Recovered(), lost[rep.Member])
		}
	}
}

func TestRecoverRestoresExactMultiset(t *testing.T) {
	workers, addrs, cl := startCluster(t, 3)
	if err := cl.CreateSet("s", 64<<10, 0); err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(600)
	if err := DispatchRandom(cl, addrs, "s", recs); err != nil {
		t.Fatal(err)
	}
	g, err := BuildGroup(cl, addrs, "s", twoPartitioners(9), rowSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	const failed = 0
	_ = workers[failed].Close()
	if _, err := Recover(cl, addrs, g, []int{failed}); err != nil {
		t.Fatal(err)
	}
	survivors := addrs[1:]
	for _, m := range g.Members {
		counts := make(map[string]int)
		for _, rec := range recs {
			counts[string(rec)]++
		}
		err := func() error {
			for _, addr := range survivors {
				if err := cl.FetchSet(addr, m.Set, func(rec []byte) error {
					counts[string(rec)]--
					return nil
				}); err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			t.Fatal(err)
		}
		for k, c := range counts {
			if c != 0 {
				t.Fatalf("member %s: record %x count off by %d", m.Set, k[:8], c)
			}
		}
	}
}

func TestReassignNodeSkipsFailed(t *testing.T) {
	for failed := 0; failed < 5; failed++ {
		var surviving []int
		for n := 0; n < 5; n++ {
			if n != failed {
				surviving = append(surviving, n)
			}
		}
		for idx := 0; idx < 100; idx++ {
			n := reassignNode(idx, surviving)
			if n == failed {
				t.Fatalf("reassignNode(%d, %v) chose the failed node", idx, surviving)
			}
			if n < 0 || n >= 5 {
				t.Fatalf("reassignNode out of range: %d", n)
			}
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("hash(l_orderkey)"); got != "hash_l_orderkey_" {
		t.Errorf("sanitize = %q", got)
	}
}

func ExamplePartitioner_PartitionOf() {
	p := &Partitioner{Scheme: "hash(id)", NumPartitions: 4, Key: func(r []byte) []byte { return r }}
	idx := p.PartitionOf([]byte("object-1"))
	fmt.Println(idx >= 0 && idx < 4)
	// Output: true
}

// TestBuildGroupKeepsColumnarLayout: a group built over a columnar source is
// columnar throughout — every member and the safety set, on every node, with
// the source's columns — and recovery, which appends into the surviving
// sets, keeps it so: afterwards FetchSet returns each record's bytes as they
// were loaded, from every member.
func TestBuildGroupKeepsColumnarLayout(t *testing.T) {
	workers, addrs, cl := startCluster(t, 3)
	spec := core.SetSpec{Name: "col", PageSize: 4 << 10, Layout: core.LayoutColumnar, Columns: []int{8, 8, 8}}
	if err := cl.CreateSetSpec(spec); err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(900)
	if err := DispatchRandom(cl, addrs, "col", recs); err != nil {
		t.Fatal(err)
	}
	sg, err := BuildGroup(cl, addrs, "col", twoPartitioners(9), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Spec.Layout != core.LayoutColumnar {
		t.Errorf("group spec layout %v, want columnar", sg.Spec.Layout)
	}
	sets := []string{sg.Colliding}
	for _, m := range sg.Members {
		sets = append(sets, m.Set)
	}
	for i, w := range workers {
		for _, name := range sets {
			s, ok := w.Pool().GetSet(name)
			if !ok {
				t.Fatalf("node %d has no set %s", i, name)
			}
			if s.Layout() != core.LayoutColumnar || fmt.Sprint(s.ColumnWidths()) != fmt.Sprint(spec.Columns) {
				t.Errorf("node %d set %s: layout %v columns %v, want columnar %v", i, name, s.Layout(), s.ColumnWidths(), spec.Columns)
			}
		}
	}
	const failed = 1
	if err := workers[failed].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(cl, addrs, sg, []int{failed}); err != nil {
		t.Fatal(err)
	}
	survivors := []string{addrs[0], addrs[2]}
	for _, m := range sg.Members {
		counts := make(map[string]int)
		for _, rec := range recs {
			counts[string(rec)]++
		}
		for _, addr := range survivors {
			if err := cl.FetchSet(addr, m.Set, func(rec []byte) error {
				counts[string(rec)]--
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		for k, c := range counts {
			if c != 0 {
				t.Fatalf("member %s after recovery: record %x count off by %d", m.Set, k, c)
			}
		}
	}
}
