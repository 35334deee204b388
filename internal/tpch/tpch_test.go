package tpch

import (
	"testing"

	"pangea/internal/cluster"
	"pangea/internal/core"
	"pangea/internal/query"
	"pangea/internal/services"
)

const testKey = "tpch-test-key"

func startExec(t *testing.T, nodes int) *query.Executor {
	t.Helper()
	return startExecMem(t, nodes, 64<<20)
}

func startExecMem(t *testing.T, nodes int, mem int64) *query.Executor {
	t.Helper()
	l, err := cluster.StartLocal(testKey, nodes, func(int) cluster.WorkerConfig {
		return cluster.WorkerConfig{Memory: mem, DiskDir: t.TempDir()}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return query.NewExecutor(l.Client, l.Workers, 2)
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.001, 42)
	b := Generate(0.001, 42)
	if len(a.Lineitem) != len(b.Lineitem) {
		t.Fatalf("lineitem counts differ: %d vs %d", len(a.Lineitem), len(b.Lineitem))
	}
	for i := range a.Lineitem {
		if string(a.Lineitem[i]) != string(b.Lineitem[i]) {
			t.Fatalf("lineitem %d differs", i)
		}
	}
	c := Generate(0.001, 43)
	if string(a.Lineitem[0]) == string(c.Lineitem[0]) {
		t.Error("different seeds produced identical rows")
	}
}

func TestGenerateCardinalities(t *testing.T) {
	d := Generate(0.001, 1)
	counts := d.Counts()
	if counts["orders"] != 1500 {
		t.Errorf("orders = %d, want 1500", counts["orders"])
	}
	if counts["customer"] != 150 {
		t.Errorf("customer = %d, want 150", counts["customer"])
	}
	if counts["part"] != 200 {
		t.Errorf("part = %d, want 200", counts["part"])
	}
	if counts["partsupp"] != 800 {
		t.Errorf("partsupp = %d, want 800", counts["partsupp"])
	}
	// lineitem averages 4 per order.
	if l := counts["lineitem"]; l < 3*1500 || l > 5*1500 {
		t.Errorf("lineitem = %d, outside [4500, 7500]", l)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := Generate(0.0005, 7)
	for _, rec := range d.Lineitem[:10] {
		l := DecodeLineitem(rec)
		out := make([]byte, LineitemSize)
		l.Encode(out)
		if string(out) != string(rec) {
			t.Fatal("lineitem round trip mismatch")
		}
	}
	for _, rec := range d.Orders[:10] {
		o := DecodeOrders(rec)
		out := make([]byte, OrdersSize)
		o.Encode(out)
		if string(out) != string(rec) {
			t.Fatal("orders round trip mismatch")
		}
	}
	c := DecodeCustomer(d.Customer[0])
	outC := make([]byte, CustomerSize)
	c.Encode(outC)
	if string(outC) != string(d.Customer[0]) {
		t.Fatal("customer round trip mismatch")
	}
}

func TestDateMonotone(t *testing.T) {
	if !(Date(1992, 1, 1) < Date(1993, 1, 1) && Date(1993, 1, 1) < Date(1993, 7, 1)) {
		t.Error("dates not monotone")
	}
	if Date(1994, 1, 1)-Date(1993, 1, 1) != daysPerYear {
		t.Error("year length wrong")
	}
}

func TestReferenceQueriesNonTrivial(t *testing.T) {
	d := Generate(0.002, 11)
	for _, q := range QueryNames {
		res, err := Reference(q, d)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res) == 0 && q != "Q22" {
			t.Errorf("%s returned an empty result; generator selectivities too tight", q)
		}
	}
}

// TestQueriesMatchReference runs all nine queries, with and without
// replicas, on a 3-node deployment and compares against the in-memory
// reference — once per lineitem layout × side-index combination, so every
// plan (row and batch) is checked pruning through a zone map, resolving
// equality probes through a microindex, and doing both at once.
func TestQueriesMatchReference(t *testing.T) {
	d := Generate(0.002, 5)
	want := map[string]Result{}
	for _, q := range QueryNames {
		res, err := Reference(q, d)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res
	}
	for _, layout := range []core.PageLayout{core.LayoutRow, core.LayoutColumnar} {
		for _, idx := range []struct {
			name              string
			zoneMap, microidx bool
		}{{"none", false, false}, {"zonemap", true, false}, {"microindex", false, true}, {"both", true, true}} {
			t.Run(layout.String()+"/"+idx.name, func(t *testing.T) {
				e := startExec(t, 3)
				if err := LoadLayout(e, d, 256<<10, layout); err != nil {
					t.Fatal(err)
				}
				if idx.zoneMap {
					if err := EnsureLineitemZoneMaps(e); err != nil {
						t.Fatal(err)
					}
				}
				if idx.microidx {
					if err := EnsureLineitemMicroindexes(e); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := BuildReplicas(e, 256<<10); err != nil {
					t.Fatal(err)
				}
				for _, mode := range []bool{true, false} {
					r := NewRunner(e, 2, mode)
					for _, q := range QueryNames {
						got, err := r.Run(q)
						if err != nil {
							t.Fatalf("mode=%v %s: %v", mode, q, err)
						}
						if err := ResultsEqual(want[q], got, 1e-9); err != nil {
							t.Errorf("mode=%v %s: %v", mode, q, err)
						}
					}
				}
				// The indexes must have been consulted, not merely built.
				var checks, hits int64
				for node := range e.Workers {
					s, err := e.Set(node, "lineitem")
					if err != nil {
						t.Fatal(err)
					}
					checks += s.ZoneMapChecks()
					hits += s.IndexHits()
				}
				if idx.zoneMap != (checks > 0) {
					t.Errorf("zone map built=%v but scans checked %d pages against it", idx.zoneMap, checks)
				}
				if idx.microidx != (hits > 0) {
					t.Errorf("microindex built=%v but lookups kept %d candidate pages", idx.microidx, hits)
				}
			})
		}
	}
}

// TestQ13CountsCustomersWithoutOrders: Q13 histograms customers on each node
// and adds the nodes' histograms, each node's zero bucket being its customers
// less its customers with orders. The generator leaves almost no customer
// without an order, so here every fourth customer loses all of theirs.
func TestQ13CountsCustomersWithoutOrders(t *testing.T) {
	d := Generate(0.002, 9)
	orders := d.Orders[:0]
	for _, rec := range d.Orders {
		if DecodeOrders(rec).CustKey%4 != 0 {
			orders = append(orders, rec)
		}
	}
	d.Orders = orders
	want := RefQ13(d)
	if want["0"] == nil {
		t.Fatal("the reference has no customer without orders")
	}
	e := startExec(t, 3)
	if err := Load(e, d, 256<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildReplicas(e, 256<<10); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []bool{true, false} {
		got, err := NewRunner(e, 2, mode).Q13()
		if err != nil {
			t.Fatal(err)
		}
		if err := ResultsEqual(want, got, 1e-9); err != nil {
			t.Errorf("mode=%v: %v", mode, err)
		}
	}
}

// TestLoadedDeploymentHoldsItsBytes: after Load and BuildReplicas every set
// is sealed on every worker — no page stays pinned, and each set's last page
// holds only its header and rows, rounded up to the allocator's 16 bytes —
// so a worker's arena holds its pages' bytes and a block header each.
func TestLoadedDeploymentHoldsItsBytes(t *testing.T) {
	const pageSize = 256 << 10
	e := startExec(t, 2)
	if err := Load(e, Generate(0.002, 1), pageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildReplicas(e, pageSize); err != nil {
		t.Fatal(err)
	}
	for node, w := range e.Workers {
		pool, sizes, pages := w.Pool(), int64(0), int64(0)
		for _, set := range pool.Sets() {
			if n := set.Snapshot()["Pinned"]; n != 0 {
				t.Errorf("node %d: %s keeps %d pages pinned after the load", node, set.Name(), n)
			}
			sizes += set.ResidentBytes()
			pages += int64(set.ResidentPages())
			if set.NumPages() == 0 {
				continue
			}
			p, err := set.Pin(set.NumPages() - 1)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := services.OpenColumnarPage(p.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			want := int64(16+4*cp.NumCols()+cp.NumRows()*cp.RowSize()+15) &^ 15
			// A tail under one allocator block (32 bytes) cannot be given back.
			if got := p.Size(); got != want && !(got == pageSize && pageSize-want < 32) {
				t.Errorf("node %d: %s's last page of %d rows has Size %d, want %d", node, set.Name(), cp.NumRows(), got, want)
			}
			if err := set.Unpin(p, false); err != nil {
				t.Fatal(err)
			}
		}
		if used := pool.UsedBytes(); used < sizes || used > sizes+48*pages {
			t.Errorf("node %d: UsedBytes %d for %d pages of %d bytes, want within 48 B a page", node, used, pages, sizes)
		}
	}
}
