package cluster

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pangea/internal/core"
)

const testKey = "test-private-key"

// startCluster spins up a manager and n workers on localhost, registering
// the workers. Its cleanup closes them and fails the test if anything of this
// package is still running afterwards.
func startCluster(t *testing.T, n int, memPerWorker int64) (*Manager, []*Worker, *Client) {
	t.Helper()
	l, err := StartLocal(testKey, n, func(int) WorkerConfig {
		return WorkerConfig{Memory: memPerWorker, DiskDir: t.TempDir()}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := l.Close(); err != nil {
			t.Errorf("closing the cluster: %v", err)
		}
		checkNoGoroutines(t)
	})
	return l.Manager, l.Workers, l.Client
}

// checkNoGoroutines fails the test if a goroutine with a frame of this
// package — a connection handler, an accept loop, a scan's computation thread
// — is still alive. It gives goroutines that are on their way out a moment.
func checkNoGoroutines(t *testing.T) {
	t.Helper()
	var leaked []string
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
		leaked = leaked[:0]
		for _, g := range stacks[1:] { // stacks[0] is this goroutine
			// Test goroutines (this test's parents) have package frames too.
			if strings.Contains(g, "pangea/internal/cluster.") && !strings.Contains(g, "testing.tRunner") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Errorf("%d goroutine(s) of the cluster package outlived Close:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
}

func TestRegisterAndListWorkers(t *testing.T) {
	_, workers, cl := startCluster(t, 3, 1<<20)
	addrs, err := cl.Workers()
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 3 {
		t.Fatalf("workers = %d, want 3", len(addrs))
	}
	for i, w := range workers {
		if addrs[i] != w.Addr() {
			t.Errorf("worker %d addr = %s, want %s", i, addrs[i], w.Addr())
		}
	}
}

// everyRequest is one well-formed request of every type a node can be sent,
// the two streaming ones and a scan's acknowledgement included. The key test
// and the fuzz seeds both walk it.
var everyRequest = []any{
	RegisterWorkerReq{Addr: "127.0.0.1:1"},
	ListWorkersReq{},
	RegisterReplicaReq{Source: "s", Target: "s_by_k", Scheme: "hash(k)"},
	GetReplicasReq{Source: "s"},
	CreateSetReq{Spec: core.SetSpec{Name: "made", PageSize: 4096}},
	AddRecordsReq{Set: "s", Frames: frames("rec")},
	FetchSetReq{Set: "s"},
	GetSetPagesReq{Set: "s"},
	PageDone{PageNum: -1},
	PinPageReq{Set: "s"},
	UnpinPageReq{Set: "s", PageNum: 0, Dirty: true},
	DropSetReq{Set: "s"},
	SetStatsReq{Set: "s"},
	NodeStatsReq{},
	ShutdownReq{},
}

// TestInvalidKeyRejected: the key is checked before dispatch, so a wrong one
// is refused for every request type on either kind of node, and the refused
// request has done nothing.
func TestInvalidKeyRejected(t *testing.T) {
	mgr, workers, good := startCluster(t, 1, 1<<20)
	w := workers[0]
	if err := good.CreateSet("s", 4096, 0); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{mgr.Addr(), w.Addr()} {
		for _, req := range everyRequest {
			_, err := call[any](addr, AuthToken("wrong-key"), req)
			if err == nil || !strings.Contains(err.Error(), "invalid private key") {
				t.Errorf("%T to %s with a wrong key: err = %v, want the key refused", req, addr, err)
			}
		}
	}
	bad := NewClient(mgr.Addr(), "wrong-key")
	if _, err := bad.Workers(); err == nil {
		t.Error("manager accepted an invalid key")
	}
	if err := bad.CreateSetOn(w.Addr(), "made", 4096, 0); err == nil {
		t.Error("worker accepted an invalid key")
	}
	// Nothing refused took effect: no set made or dropped, no worker
	// registered, and both nodes — sent a ShutdownReq each — still serve.
	if _, ok := w.Pool().GetSet("made"); ok {
		t.Error("a refused CreateSetReq made its set")
	}
	if _, ok := w.Pool().GetSet("s"); !ok {
		t.Error("a refused DropSetReq dropped its set")
	}
	if addrs, err := good.Workers(); err != nil || len(addrs) != 1 {
		t.Errorf("manager after the refusals: workers = %v, err = %v, want the one registered", addrs, err)
	}
	if _, err := good.NodeStats(w.Addr()); err != nil {
		t.Errorf("worker after the refusals: %v", err)
	}
}

func TestAddFetchRoundTrip(t *testing.T) {
	_, workers, cl := startCluster(t, 2, 1<<20)
	if err := cl.CreateSet("data", 4096, uint8(core.WriteBack)); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for i := 0; i < 100; i++ {
		recs = append(recs, []byte(fmt.Sprintf("rec-%03d", i)))
	}
	if err := cl.AddRecords(workers[0].Addr(), "data", recs[:60]); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddRecords(workers[1].Addr(), "data", recs[60:]); err != nil {
		t.Fatal(err)
	}
	var got int
	for _, w := range workers {
		if err := cl.FetchSet(w.Addr(), "data", func(rec []byte) error {
			got++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got != 100 {
		t.Errorf("fetched %d records, want 100", got)
	}
}

func TestProxyScanSharedMemory(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 4<<20)
	w := workers[0]
	if err := cl.CreateSet("scan", 64<<10, uint8(core.WriteBack)); err != nil {
		t.Fatal(err)
	}
	const n = 5000
	var recs [][]byte
	for i := 0; i < n; i++ {
		recs = append(recs, []byte(fmt.Sprintf("%06d", i)))
	}
	if err := cl.AddRecords(w.Addr(), "scan", recs); err != nil {
		t.Fatal(err)
	}
	dp := NewDataProxy(w, testKey)
	seen := make([]bool, n)
	var mu sync.Mutex
	if err := dp.Scan("scan", 4, func(_ int, rec []byte) error {
		var i int
		if _, err := fmt.Sscanf(string(rec), "%d", &i); err != nil {
			return err
		}
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("record %d missed by proxy scan", i)
		}
	}
	// After the scan everything must be unpinned: a DropSet must succeed.
	if err := cl.DropSet(w.Addr(), "scan"); err != nil {
		t.Errorf("drop after scan: %v", err)
	}
}

func TestProxyPageWriter(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 4<<20)
	w := workers[0]
	if err := cl.CreateSet("out", 32<<10, uint8(core.WriteBack)); err != nil {
		t.Fatal(err)
	}
	dp := NewDataProxy(w, testKey)
	pw := dp.NewPageWriter("out")
	const n = 3000
	for i := 0; i < n; i++ {
		if err := pw.Add([]byte(fmt.Sprintf("row-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if pw.Count() != n {
		t.Errorf("Count = %d, want %d", pw.Count(), n)
	}
	var got [2]int // one slot per scan thread
	if err := dp.Scan("out", 2, func(thread int, rec []byte) error {
		got[thread]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got[0]+got[1] != n {
		t.Errorf("scanned %d, want %d", got[0]+got[1], n)
	}
}

func TestScanSpilledSetViaProxy(t *testing.T) {
	// The set exceeds worker memory; the proxy scan must transparently
	// reload spilled pages through the storage process.
	_, workers, cl := startCluster(t, 1, 128<<10)
	w := workers[0]
	if err := cl.CreateSet("big", 16<<10, uint8(core.WriteBack)); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	batch := make([][]byte, 0, 500)
	for i := 0; i < n; i++ {
		batch = append(batch, []byte(fmt.Sprintf("%08d", i)))
		if len(batch) == 500 {
			if err := cl.AddRecords(w.Addr(), "big", batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if w.Pool().Stats().Evictions.Load() == 0 {
		t.Fatal("expected evictions on the worker")
	}
	dp := NewDataProxy(w, testKey)
	var count int
	var mu sync.Mutex
	if err := dp.Scan("big", 3, func(_ int, rec []byte) error {
		mu.Lock()
		count++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("scanned %d, want %d", count, n)
	}
}

func TestReplicaRegistry(t *testing.T) {
	_, _, cl := startCluster(t, 1, 1<<20)
	if err := cl.RegisterReplica("lineitem", "lineitem_by_orderkey", "hash(l_orderkey)"); err != nil {
		t.Fatal(err)
	}
	if err := cl.RegisterReplica("lineitem", "lineitem_by_partkey", "hash(l_partkey)"); err != nil {
		t.Fatal(err)
	}
	group, err := cl.Replicas("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if len(group) != 3 {
		t.Fatalf("replica group size = %d, want 3 (source + 2 replicas)", len(group))
	}
	if group[0].Set != "lineitem" || group[0].Scheme != "random" {
		t.Errorf("group[0] = %+v, want the source with scheme random", group[0])
	}
	// Unregistered sets answer with only themselves.
	solo, err := cl.Replicas("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(solo) != 1 || solo[0].Set != "orders" {
		t.Errorf("solo group = %+v", solo)
	}
}

func TestSetStats(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 1<<20)
	w := workers[0]
	if err := cl.CreateSet("s", 4096, uint8(core.WriteThrough)); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for i := 0; i < 100; i++ {
		recs = append(recs, make([]byte, 100))
	}
	if err := cl.AddRecords(w.Addr(), "s", recs); err != nil {
		t.Fatal(err)
	}
	// Fetch closes the writer so all pages are sealed and flushed.
	if err := cl.FetchSet(w.Addr(), "s", func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st, err := cl.SetStats(w.Addr(), "s")
	if err != nil {
		t.Fatal(err)
	}
	if st["NumPages"] < 3 {
		t.Errorf("NumPages = %d, want >= 3", st["NumPages"])
	}
	if st["DiskBytes"] == 0 {
		t.Error("write-through set should have disk bytes")
	}
	if _, err := cl.SetStats(w.Addr(), "missing"); err == nil {
		t.Error("stats of a set the worker does not have came back without an error")
	}
}

// TestNodeStats: a worker reports its pool's gauges over the wire: no loads
// in flight once the writes have returned.
func TestNodeStats(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 4<<20)
	w := workers[0]
	if err := cl.CreateSet("ns", 4096, uint8(core.WriteBack)); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for i := 0; i < 50; i++ {
		recs = append(recs, make([]byte, 100))
	}
	if err := cl.AddRecords(w.Addr(), "ns", recs); err != nil {
		t.Fatal(err)
	}
	st, err := cl.NodeStats(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := st["LoadsInFlight"]; !ok || n != 0 {
		t.Errorf("LoadsInFlight = %d (reported: %v) with no reads outstanding", n, ok)
	}
	// The gauges are worker-wide, so a bad key is the only failure mode.
	bad := NewClient("", "wrong-key")
	if _, err := bad.NodeStats(w.Addr()); err == nil {
		t.Error("worker accepted node-stats request with an invalid key")
	}
}

// TestStatsTravelWhole: every counter core declares — each atomic.Int64
// field of PoolStats and SetStats — reaches the wire under its field name
// with its value, so a counter added later is covered with no edit here.
func TestStatsTravelWhole(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 1<<20)
	w := workers[0]
	if err := cl.CreateSet("s", 4096, uint8(core.WriteBack)); err != nil {
		t.Fatal(err)
	}
	set, ok := w.Pool().GetSet("s")
	if !ok {
		t.Fatal("worker has no set \"s\"")
	}
	// Distinct values, so a counter reported under another's name — or one
	// name in both structs, which a node snapshot would add up — shows.
	next := int64(1000)
	give := func(want map[string]int64) func(string, *atomic.Int64) {
		return func(name string, c *atomic.Int64) {
			next++
			c.Store(next)
			want[name] = next
		}
	}
	poolWant, setWant := map[string]int64{}, map[string]int64{}
	core.EachCounter(w.Pool().Stats(), give(poolWant))
	core.EachCounter(set.Stats(), give(setWant))
	if len(poolWant) == 0 || len(setWant) == 0 {
		t.Fatalf("found %d pool and %d set counters", len(poolWant), len(setWant))
	}
	st, err := cl.SetStats(w.Addr(), "s")
	if err != nil {
		t.Fatal(err)
	}
	nst, err := cl.NodeStats(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	check := func(reply string, got Stats, want map[string]int64) {
		for name, v := range want {
			if g, ok := got[name]; !ok || g != v {
				t.Errorf("%s[%q] = %d (reported: %v), want %d", reply, name, g, ok, v)
			}
		}
	}
	check("SetStats", st, setWant)
	check("NodeStats", nst, setWant) // the only set is the whole pool
	check("NodeStats", nst, poolWant)
}

// TestNodeStatsSurviveDropSet: a dropped set's counters stay in its worker's
// node totals, which never go down.
func TestNodeStatsSurviveDropSet(t *testing.T) {
	_, workers, cl := startCluster(t, 1, 1<<20)
	w := workers[0]
	for _, name := range []string{"gone", "kept"} {
		if err := cl.CreateSet(name, 4096, uint8(core.WriteBack)); err != nil {
			t.Fatal(err)
		}
		set, _ := w.Pool().GetSet(name)
		set.Stats().ZoneMapChecks.Add(10)
		set.Stats().ZoneMapSkips.Add(4)
		set.Stats().IndexChecks.Add(10)
		set.Stats().IndexHits.Add(2)
	}
	if err := cl.DropSet(w.Addr(), "gone"); err != nil {
		t.Fatal(err)
	}
	nst, err := cl.NodeStats(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"ZoneMapChecks": 20, "ZoneMapSkips": 8, "IndexChecks": 20, "IndexHits": 4}
	for name, v := range want {
		if nst[name] != v {
			t.Errorf("after DropSet NodeStats[%q] = %d, want both sets' %d", name, nst[name], v)
		}
	}
}

// TestCreateSetSpecPlumbsAdmissionFields: quota, weight and the pinned
// Location attribute travel the wire to the worker's buffer pool, and the
// stats reply reports the resulting entitlement gauge.
func TestCreateSetSpecPlumbsAdmissionFields(t *testing.T) {
	_, workers, cl := startCluster(t, 2, 1<<20)
	if err := cl.CreateSetSpec(core.SetSpec{Name: "capped", PageSize: 4096, MemoryQuota: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateSetSpec(core.SetSpec{Name: "weighted", PageSize: 4096, Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateSetSpec(core.SetSpec{Name: "pinned", PageSize: 4096, Pinned: true}); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		if pinned, ok := w.Pool().GetSet("pinned"); !ok || !pinned.Attrs().Pinned {
			t.Errorf("worker %s: set \"pinned\" (made: %v) is evictable", w.Addr(), ok)
		}
		capped, ok := w.Pool().GetSet("capped")
		if !ok {
			t.Fatalf("worker %s has no set \"capped\"", w.Addr())
		}
		if got := capped.MemoryQuota(); got != 64<<10 {
			t.Errorf("worker %s: quota = %d, want %d", w.Addr(), got, 64<<10)
		}
		weighted, ok := w.Pool().GetSet("weighted")
		if !ok {
			t.Fatalf("worker %s has no set \"weighted\"", w.Addr())
		}
		// The only weighted set takes the whole arena as its share.
		if got := weighted.Entitlement(); got != 1<<20 {
			t.Errorf("worker %s: entitlement = %d, want %d", w.Addr(), got, 1<<20)
		}
	}
	st, err := cl.SetStats(workers[0].Addr(), "capped")
	if err != nil {
		t.Fatal(err)
	}
	if st["Entitlement"] != 64<<10 {
		t.Errorf("SetStats entitlement = %d, want the %d-byte quota", st["Entitlement"], 64<<10)
	}
	// An invalid quota must fail set creation through the proxy too.
	if err := cl.CreateSetSpec(core.SetSpec{Name: "bad", PageSize: 4096, MemoryQuota: 100}); err == nil {
		t.Error("sub-page quota accepted over the wire")
	}
}

// TestCreateSetSpecPlumbsLayout: the page layout and column widths travel
// the wire, so a columnar set created through the manager is columnar on
// every worker — and a bad schema is rejected by the worker's pool just as
// it would be locally.
func TestCreateSetSpecPlumbsLayout(t *testing.T) {
	_, workers, cl := startCluster(t, 2, 1<<20)
	if err := cl.CreateSetSpec(core.SetSpec{
		Name: "facts", PageSize: 4096,
		Layout: core.LayoutColumnar, Columns: []int{8, 2, 8},
	}); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		s, ok := w.Pool().GetSet("facts")
		if !ok {
			t.Fatalf("worker %s has no set \"facts\"", w.Addr())
		}
		if s.Layout() != core.LayoutColumnar {
			t.Errorf("worker %s: layout = %v, want columnar", w.Addr(), s.Layout())
		}
		if widths := s.ColumnWidths(); len(widths) != 3 || widths[0] != 8 || widths[1] != 2 || widths[2] != 8 {
			t.Errorf("worker %s: column widths = %v, want [8 2 8]", w.Addr(), widths)
		}
	}
	// Plain specs stay row-layout.
	if err := cl.CreateSetSpec(core.SetSpec{Name: "plain", PageSize: 4096}); err != nil {
		t.Fatal(err)
	}
	if s, ok := workers[0].Pool().GetSet("plain"); !ok || s.Layout() != core.LayoutRow {
		t.Errorf("plain set: ok=%v layout=%v, want row", ok, s.Layout())
	}
	// Schema validation still applies across the wire.
	if err := cl.CreateSetSpec(core.SetSpec{
		Name: "bad", PageSize: 64, Layout: core.LayoutColumnar, Columns: []int{64},
	}); err == nil {
		t.Error("columnar row wider than the page accepted over the wire")
	}
}

func TestAuthTokenDeterministic(t *testing.T) {
	if AuthToken("k") != AuthToken("k") {
		t.Error("token not deterministic")
	}
	if AuthToken("a") == AuthToken("b") {
		t.Error("different keys produced the same token")
	}
}
