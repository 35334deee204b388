package cluster_test

import (
	"encoding/binary"
	"testing"

	"pangea/internal/cluster"
	"pangea/internal/core"
	"pangea/internal/query"
	"pangea/internal/services"
)

// TestProxyPageWriterKeepsSetLayout: a PageWriter fills pages of the set's own
// layout — into a columnar set, only columnar pages — so a scan of the set
// reads back every record it wrote.
func TestProxyPageWriterKeepsSetLayout(t *testing.T) {
	const key, n = "test-private-key", 3000
	dir := t.TempDir()
	l, err := cluster.StartLocal(key, 1, func(int) cluster.WorkerConfig {
		return cluster.WorkerConfig{Memory: 4 << 20, DiskDir: dir}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	w := l.Workers[0]
	spec := core.SetSpec{Name: "out", PageSize: 4 << 10, Layout: core.LayoutColumnar, Columns: []int{4, 8}}
	if err := l.Client.CreateSetSpec(spec); err != nil {
		t.Fatal(err)
	}
	pw := cluster.NewDataProxy(w, key).NewPageWriter("out")
	for i := 0; i < n; i++ {
		rec := binary.LittleEndian.AppendUint32(nil, uint32(i))
		if err := pw.Add(binary.LittleEndian.AppendUint64(rec, uint64(i)*3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if pw.Count() != n {
		t.Errorf("Count = %d, want %d", pw.Count(), n)
	}
	set, _ := w.Pool().GetSet("out")
	for num := int64(0); num < set.NumPages(); num++ {
		p, err := set.Pin(num)
		if err != nil {
			t.Fatal(err)
		}
		if !services.IsColumnarPage(p.Bytes()) {
			t.Errorf("page %d of the columnar set is not a columnar page", num)
		}
		if err := set.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	seen := make([]bool, n)
	err = query.ScanSpec{Set: set}.Run(func(_ int, r query.Row) error {
		i := binary.LittleEndian.Uint32(r)
		if len(r) != 12 || i >= n || seen[i] || binary.LittleEndian.Uint64(r[4:]) != uint64(i)*3 {
			t.Fatalf("scan returned a record %x not written, or twice", r)
		}
		seen[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("record %d missing from the scan", i)
		}
	}
}
