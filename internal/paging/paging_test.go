package paging

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
)

func newPool(t *testing.T, mem int64, p core.Policy) *core.BufferPool {
	t.Helper()
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	bp, err := core.NewPool(core.PoolConfig{Memory: mem, Array: arr, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	return bp
}

// fill writes n dirty write-back pages into a fresh set.
func fill(t *testing.T, bp *core.BufferPool, name string, pageSize int64, n int) *core.LocalitySet {
	t.Helper()
	s, err := bp.CreateSet(core.SetSpec{Name: name, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatalf("NewPage %d in %s: %v", i, name, err)
		}
		p.Bytes()[0] = byte(i)
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestLRUEvictsOldestAcrossSets(t *testing.T) {
	const ps = 4096
	bp := newPool(t, 64*ps, NewLRU())
	a := fill(t, bp, "a", ps, 4) // oldest pages
	b := fill(t, bp, "b", ps, 4)

	// Exhaust memory so the pool runs LRU evictions, then verify the older
	// set a lost at least as many pages as the newer set b.
	fillMore := func(name string, n int) {
		s, err := bp.CreateSet(core.SetSpec{Name: name, PageSize: ps})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			p, err := s.NewPage()
			if err != nil {
				t.Fatalf("pressure page %d: %v", i, err)
			}
			_ = s.Unpin(p, true)
		}
	}
	fillMore("pressure", 58)
	// Victims are claimed oldest first, but their write-backs complete in
	// any order and a page stays resident until its own write lands.
	for deadline := time.Now().Add(5 * time.Second); bp.Stats().SpillsInFlight.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if a.ResidentPages() > b.ResidentPages() {
		t.Errorf("LRU kept older set a (%d pages) over newer set b (%d pages)",
			a.ResidentPages(), b.ResidentPages())
	}
}

func TestMRUProtectsScanFront(t *testing.T) {
	// For a loop-sequential scan, MRU keeps the front of the file resident.
	const ps = 4096
	bp := newPool(t, 10*ps, NewMRU())
	s := fill(t, bp, "scan", ps, 20)
	// Pages 0..k survive; the most recently written tail was evicted.
	front, err := s.Pin(0)
	if err != nil {
		t.Fatalf("front page not resident under MRU: %v", err)
	}
	_ = s.Unpin(front, false)
	if got := bp.Stats().Loads.Load(); got != 0 {
		t.Errorf("front pin caused %d disk loads; MRU should keep the scan front", got)
	}
}

func TestLRUEvictsScanFront(t *testing.T) {
	const ps = 4096
	bp := newPool(t, 10*ps, NewLRU())
	s := fill(t, bp, "scan", ps, 20)
	front, err := s.Pin(0)
	if err != nil {
		t.Fatalf("pin front: %v", err)
	}
	_ = s.Unpin(front, false)
	if got := bp.Stats().Loads.Load(); got == 0 {
		t.Error("under LRU the scan front should have been evicted and re-loaded")
	}
}

func TestDBMIN1EvictsDownToOnePage(t *testing.T) {
	const ps = 4096
	bp := newPool(t, 8*ps, NewDBMIN1())
	s := fill(t, bp, "s", ps, 24)
	if s.ResidentPages() > 7 {
		t.Errorf("resident = %d, want bounded by pool", s.ResidentPages())
	}
	if bp.Stats().Evictions.Load() == 0 {
		t.Error("expected evictions under DBMIN-1")
	}
}

func TestDBMIN1000Blocks(t *testing.T) {
	// Desired size 1000 pages > pool of 8 pages: allocation must fail with
	// the DBMIN blocking error once the pool is full.
	const ps = 4096
	bp := newPool(t, 8*ps, NewDBMIN1000())
	s, err := bp.CreateSet(core.SetSpec{Name: "s", PageSize: ps})
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	for i := 0; i < 24; i++ {
		p, err := s.NewPage()
		if err != nil {
			gotErr = err
			break
		}
		_ = s.Unpin(p, true)
	}
	if gotErr == nil {
		t.Fatal("DBMIN-1000 should block when desired size exceeds the pool")
	}
	if !errors.Is(gotErr, ErrDBMINBlocked) {
		t.Errorf("err = %v, want ErrDBMINBlocked", gotErr)
	}
}

func TestDBMINAdaptiveBlocksOnLoopingScan(t *testing.T) {
	// A looping-sequential set larger than memory gets a desired size equal
	// to the full set, so adaptive DBMIN blocks — the Fig 3 failure.
	const ps = 4096
	bp := newPool(t, 8*ps, NewDBMINAdaptive())
	s, err := bp.CreateSet(core.SetSpec{Name: "s", PageSize: ps})
	if err != nil {
		t.Fatal(err)
	}
	s.SetReading(core.SequentialRead) // service stamps loop-sequential read
	var gotErr error
	for i := 0; i < 24; i++ {
		p, err := s.NewPage()
		if err != nil {
			gotErr = err
			break
		}
		_ = s.Unpin(p, true)
	}
	if !errors.Is(gotErr, ErrDBMINBlocked) {
		t.Errorf("err = %v, want ErrDBMINBlocked", gotErr)
	}
}

func TestDBMINTunedDoesNotBlock(t *testing.T) {
	const ps = 4096
	bp := newPool(t, 8*ps, NewDBMINTuned())
	s, err := bp.CreateSet(core.SetSpec{Name: "s", PageSize: ps})
	if err != nil {
		t.Fatal(err)
	}
	s.SetReading(core.SequentialRead)
	for i := 0; i < 24; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatalf("DBMIN-tuned must not block: page %d: %v", i, err)
		}
		p.Bytes()[0] = byte(i)
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	// All pages must be readable back.
	for i := 0; i < 24; i++ {
		p, err := s.Pin(int64(i))
		if err != nil {
			t.Fatalf("Pin %d: %v", i, err)
		}
		if p.Bytes()[0] != byte(i) {
			t.Errorf("page %d corrupt", i)
		}
		_ = s.Unpin(p, false)
	}
}

func TestSizerFixed(t *testing.T) {
	s := SizerFixed(7)
	if got := s(nil, 100); got != 7 {
		t.Errorf("SizerFixed(7) = %d", got)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, c := range []struct {
		p    core.Policy
		want string
	}{
		{NewLRU(), "LRU"},
		{NewMRU(), "MRU"},
		{NewDBMIN1(), "DBMIN-1"},
		{NewDBMIN1000(), "DBMIN-1000"},
		{NewDBMINAdaptive(), "DBMIN-adaptive"},
		{NewDBMINTuned(), "DBMIN-tuned"},
		{core.NewDataAware(), "data-aware"},
	} {
		if c.p.Name() != c.want {
			t.Errorf("Name = %q, want %q", c.p.Name(), c.want)
		}
	}
}

func TestBatchSize(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 1}, {5, 1}, {10, 1}, {11, 2}, {40, 4}, {95, 10}} {
		if got := batchSize(c.n); got != c.want {
			t.Errorf("batchSize(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func ExampleNewDBMINTuned() {
	fmt.Println(NewDBMINTuned().Name())
	// Output: DBMIN-tuned
}
