package services

import (
	"errors"
	"testing"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
)

// TestIndexerKeepsWriteThroughFault: a write-through set flushes each page
// in Unpin, which the indexer now runs beside the writer. A drive write
// fault must still reach the caller — from a later Add or from Close — and
// Close must leave no page of the set pinned, so the set can be dropped.
func TestIndexerKeepsWriteThroughFault(t *testing.T) {
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := core.NewPool(core.PoolConfig{Memory: 1 << 20, Array: arr})
	if err != nil {
		t.Fatal(err)
	}
	set, err := bp.CreateSet(core.SetSpec{Name: "wt", PageSize: 512, Durability: core.WriteThrough})
	if err != nil {
		t.Fatal(err)
	}
	w := NewSeqWriter(set)
	z, err := AttachZoneMap(w, ZoneMapSpec{Schema: zmSchema()})
	if err != nil {
		t.Fatal(err)
	}
	fault := errors.New("injected write fault")
	arr.Disk(0).SetWriteFault(func() error { return fault })
	var addErr error
	for i := 0; i < 400 && addErr == nil; i++ {
		addErr = w.Add(colRec(i))
	}
	closeErr := w.Close()
	arr.Disk(0).SetWriteFault(nil)
	if !errors.Is(addErr, fault) && !errors.Is(closeErr, fault) {
		t.Fatalf("Add returned %v and Close %v, want the injected fault from one of them", addErr, closeErr)
	}
	if !z.Covers(set.NumPages()) {
		t.Errorf("zone map covers %d of %d pages after a failed flush", z.NumPages(), set.NumPages())
	}
	if err := bp.DropSet(set); err != nil {
		t.Errorf("a page is still pinned after Close: %v", err)
	}
}

// foldOrder wraps a side index's summarizer and records the pages folded
// into it, in the order the writer's indexer folds them.
type foldOrder struct {
	summarizer
	pages []int64
}

func (f *foldOrder) fold(sum []byte, num int64, c foldCol, vals []uint64) {
	if n := len(f.pages); n == 0 || f.pages[n-1] != num {
		f.pages = append(f.pages, num)
	}
	f.summarizer.fold(sum, num, c, vals)
}

// TestCloseLeavesIndexSealed: when Close returns, the indexer has folded
// every page into the attached microindex, in page order and while the page
// was pinned (the postings are the rows' own), and the index is sealed — it
// covers the set and holds no tail, so a Lookup has nothing left to sort. No
// index work is left to run after the writer's Close.
func TestCloseLeavesIndexSealed(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		t.Run(map[bool]string{false: "row", true: "columnar"}[columnar], func(t *testing.T) {
			bp := newPool(t, 1<<20)
			spec := core.SetSpec{Name: "s", PageSize: 512}
			if columnar {
				spec.Layout, spec.Columns = core.LayoutColumnar, colWidths
			}
			set, err := bp.CreateSet(spec)
			if err != nil {
				t.Fatal(err)
			}
			w := NewSeqWriter(set)
			m, err := AttachMicroindex(w, miSpec())
			if err != nil {
				t.Fatal(err)
			}
			order := &foldOrder{summarizer: m.sum}
			m.sum = order
			for i := 0; i < 1000; i++ {
				if err := w.Add(colRec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			np := set.NumPages()
			if np < 2 {
				t.Fatalf("the set has %d pages; the test needs several", np)
			}
			for i, num := range order.pages {
				if num != int64(i) {
					t.Fatalf("the index folded pages %v, want 0..%d in order", order.pages, np-1)
				}
			}
			if int64(len(order.pages)) != np {
				t.Errorf("the index folded %d pages, the set has %d", len(order.pages), np)
			}
			if !m.Covers(np) {
				t.Errorf("microindex covers %d of %d pages after Close", m.NumPages(), np)
			}
			m.mu.RLock()
			for slot, p := range m.post {
				if len(p.tail) != 0 {
					t.Errorf("column slot %d has %d unsealed pages after Close", slot, len(p.tail))
				}
			}
			m.mu.RUnlock()
			miCheckExact(t, set, m)
		})
	}
}

// TestIndexedWriterInSmallPool: an indexed writer holds up to three pages
// pinned (the open one, one handed over, one being folded). In a pool of a
// few frames the writer's next allocation must wait for the indexer's unpin
// and the evictor's spill, not time out.
func TestIndexedWriterInSmallPool(t *testing.T) {
	const pageSize = 16 << 10
	for _, columnar := range []bool{false, true} {
		t.Run(map[bool]string{false: "row", true: "columnar"}[columnar], func(t *testing.T) {
			arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = arr.RemoveAll() })
			bp, err := core.NewPool(core.PoolConfig{Memory: 4*pageSize + pageSize/2, Array: arr,
				AllocTimeout: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			spec := core.SetSpec{Name: "small", PageSize: pageSize}
			if columnar {
				spec.Layout, spec.Columns = core.LayoutColumnar, colWidths
			}
			set, err := bp.CreateSet(spec)
			if err != nil {
				t.Fatal(err)
			}
			w := NewSeqWriter(set)
			z, err := AttachZoneMap(w, ZoneMapSpec{Schema: zmSchema(), BloomCols: []int{1}})
			if err != nil {
				t.Fatal(err)
			}
			m, err := AttachMicroindex(w, miSpec())
			if err != nil {
				t.Fatal(err)
			}
			const n = 20000 // dozens of pages through four frames
			for i := 0; i < n; i++ {
				if err := w.Add(colRec(i)); err != nil {
					_ = w.Close()
					t.Fatalf("Add %d: %v", i, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			np := set.NumPages()
			if np < 12 {
				t.Fatalf("the set has %d pages; the test needs several times the pool's frames", np)
			}
			if !z.Covers(np) || !m.Covers(np) {
				t.Errorf("zone map covers %d, microindex %d of %d pages", z.NumPages(), m.NumPages(), np)
			}
			if err := bp.DropSet(set); err != nil {
				t.Errorf("a page is still pinned after Close: %v", err)
			}
		})
	}
}
