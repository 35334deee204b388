package core

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"testing"

	"pangea/internal/disk"
)

// newTestPool builds a pool with unthrottled disks in a temp dir.
func newTestPool(t *testing.T, mem int64, policy Policy) *BufferPool {
	t.Helper()
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	bp, err := NewPool(PoolConfig{Memory: mem, Array: arr, Policy: policy})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	return bp
}

func TestCreateSetAndLookup(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	s, err := bp.CreateSet(SetSpec{Name: "data", PageSize: 4096})
	if err != nil {
		t.Fatalf("CreateSet: %v", err)
	}
	if s.Name() != "data" || s.PageSize() != 4096 {
		t.Errorf("got name=%q pageSize=%d", s.Name(), s.PageSize())
	}
	got, ok := bp.GetSet("data")
	if !ok || got != s {
		t.Errorf("GetSet returned %v, %v", got, ok)
	}
	if _, err := bp.CreateSet(SetSpec{Name: "data", PageSize: 4096}); err == nil {
		t.Error("duplicate CreateSet should fail")
	}
	if _, err := bp.CreateSet(SetSpec{Name: "big", PageSize: 2 << 20}); err == nil {
		t.Error("page size exceeding pool should fail")
	}
	if _, err := bp.CreateSet(SetSpec{Name: "zero", PageSize: 0}); err == nil {
		t.Error("zero page size should fail")
	}
}

// TestCreateSetRejectsPageLargerThanShard: a page cannot span allocator
// shards, so a page size no shard can hold must fail fast at CreateSet —
// not block for the full AllocTimeout on the first NewPage. On one shard
// the page and its block header must fit the arena: a page size between
// MaxAlloc and Memory fails too.
func TestCreateSetRejectsPageLargerThanShard(t *testing.T) {
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	small, err := NewPool(PoolConfig{Memory: 1 << 20, Array: arr})
	if err != nil {
		t.Fatal(err)
	}
	if max := small.alloc.MaxAlloc(); max >= small.Capacity() {
		t.Fatalf("MaxAlloc = %d on a %d-byte pool, want less", max, small.Capacity())
	} else if _, err := small.CreateSet(SetSpec{Name: "arena", PageSize: max + 1}); err == nil {
		t.Fatal("page size above MaxAlloc but within Memory must fail at CreateSet")
	}
	bp, err := NewPool(PoolConfig{Memory: 8 << 20, Array: arr})
	if err != nil {
		t.Fatal(err)
	}
	withShards(bp, 4)
	if _, err := bp.CreateSet(SetSpec{Name: "huge", PageSize: 3 << 20}); err == nil {
		t.Fatal("page size above the per-shard maximum must fail at CreateSet")
	}
	// A page that fits one 2 MiB shard still works.
	s, err := bp.CreateSet(SetSpec{Name: "fits", PageSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Unpin(p, false); err != nil {
		t.Fatal(err)
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
}

func TestNewPageWriteReadBack(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	s, err := bp.CreateSet(SetSpec{Name: "s", PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	copy(p.Bytes(), []byte("hello pangea"))
	if err := s.Unpin(p, true); err != nil {
		t.Fatalf("Unpin: %v", err)
	}
	q, err := s.Pin(0)
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if string(q.Bytes()[:12]) != "hello pangea" {
		t.Errorf("page bytes = %q", q.Bytes()[:12])
	}
	if err := s.Unpin(q, false); err != nil {
		t.Fatal(err)
	}
}

func TestPinMissingPage(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	s, _ := bp.CreateSet(SetSpec{Name: "s", PageSize: 1024})
	if _, err := s.Pin(0); err == nil {
		t.Error("pin of non-existent page must fail")
	}
	if _, err := s.Pin(-1); err == nil {
		t.Error("pin of negative page must fail")
	}
}

func TestDoubleUnpinFails(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	s, _ := bp.CreateSet(SetSpec{Name: "s", PageSize: 1024})
	p, _ := s.NewPage()
	if err := s.Unpin(p, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Unpin(p, false); err == nil {
		t.Error("double unpin must fail")
	}
}

// TestEvictionSpillsAndReloads writes more write-back pages than fit in the
// pool and checks that evicted pages are spilled and can be pinned back with
// their contents intact.
func TestEvictionSpillsAndReloads(t *testing.T) {
	const pageSize = 4096
	// Pool fits ~4 pages (TLSF needs header space).
	bp := newTestPool(t, 5*pageSize, nil)
	s, err := bp.CreateSet(SetSpec{Name: "wb", PageSize: pageSize, Durability: WriteBack})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		copy(p.Bytes(), []byte(fmt.Sprintf("page-%02d", i)))
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	if bp.Stats().Evictions.Load() == 0 {
		t.Fatal("expected evictions")
	}
	if bp.Stats().Spills.Load() == 0 {
		t.Fatal("expected dirty spills for write-back data")
	}
	for i := 0; i < n; i++ {
		p, err := s.Pin(int64(i))
		if err != nil {
			t.Fatalf("Pin %d: %v", i, err)
		}
		want := fmt.Sprintf("page-%02d", i)
		if string(p.Bytes()[:len(want)]) != want {
			t.Errorf("page %d = %q, want %q", i, p.Bytes()[:len(want)], want)
		}
		if err := s.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteThroughFlushesAtUnpin checks the d=0 property: write-through pages
// are persisted when unpinned, so eviction never needs to spill them.
func TestWriteThroughFlushesAtUnpin(t *testing.T) {
	const pageSize = 4096
	bp := newTestPool(t, 5*pageSize, nil)
	s, err := bp.CreateSet(SetSpec{Name: "wt", PageSize: pageSize, Durability: WriteThrough})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Bytes()[0] = byte(i)
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := bp.Stats().FlushWrites.Load(); got != 12 {
		t.Errorf("FlushWrites = %d, want 12", got)
	}
	if got := bp.Stats().Spills.Load(); got != 0 {
		t.Errorf("Spills = %d, want 0 (write-through pages are clean at eviction)", got)
	}
}

// TestLifetimeEndedEvictedWithoutSpill: dirty pages of lifetime-ended sets
// are dropped, not spilled, and are preferred victims.
func TestLifetimeEndedEvictedWithoutSpill(t *testing.T) {
	const pageSize = 4096
	bp := newTestPool(t, 8*pageSize, nil)
	dead, _ := bp.CreateSet(SetSpec{Name: "dead", PageSize: pageSize})
	// live is write-through: its pages are clean at eviction time, so any
	// spill observed below must have come from the dead set — a bug.
	live, _ := bp.CreateSet(SetSpec{Name: "live", PageSize: pageSize, Durability: WriteThrough})
	for i := 0; i < 3; i++ {
		p, err := dead.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		_ = dead.Unpin(p, true)
	}
	dead.EndLifetime()
	// Fill the pool from the live set, forcing evictions.
	for i := 0; i < 8; i++ {
		p, err := live.NewPage()
		if err != nil {
			t.Fatalf("NewPage live %d: %v", i, err)
		}
		_ = live.Unpin(p, true)
	}
	if dead.ResidentPages() != 0 {
		t.Errorf("lifetime-ended set still has %d resident pages", dead.ResidentPages())
	}
	if got := bp.Stats().Spills.Load(); got != 0 {
		t.Errorf("Spills = %d, want 0: dead dirty pages must not be written", got)
	}
	if live.ResidentPages() == 0 {
		t.Error("live set should retain pages while dead set is drained")
	}
}

// TestPinnedLocationNeverEvicted: sets whose Location attribute is pinned
// survive memory pressure; allocation fails instead.
func TestPinnedLocationNeverEvicted(t *testing.T) {
	const pageSize = 4096
	bp := newTestPool(t, 5*pageSize, nil)
	bp.cfg.AllocTimeout = 1 // fail fast
	pinned, _ := bp.CreateSet(SetSpec{Name: "p", PageSize: pageSize, Pinned: true})
	for i := 0; i < 4; i++ {
		p, err := pinned.NewPage()
		if err != nil {
			break // pool can hold only ~4 pages
		}
		_ = pinned.Unpin(p, false)
	}
	before := pinned.ResidentPages()
	other, _ := bp.CreateSet(SetSpec{Name: "o", PageSize: pageSize})
	_, err := other.NewPage()
	if err == nil {
		t.Fatal("allocation should fail: all memory is held by a pinned set")
	}
	if !errors.Is(err, ErrNoEvictable) {
		t.Errorf("err = %v, want ErrNoEvictable", err)
	}
	if pinned.ResidentPages() != before {
		t.Errorf("pinned set lost pages: %d -> %d", before, pinned.ResidentPages())
	}
}

func TestDropSetFreesMemory(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	s, _ := bp.CreateSet(SetSpec{Name: "s", PageSize: 4096})
	p, _ := s.NewPage()
	if err := bp.DropSet(s); err == nil {
		t.Error("drop with pinned page must fail")
	}
	_ = s.Unpin(p, false)
	used := bp.UsedBytes()
	if used == 0 {
		t.Fatal("expected non-zero usage")
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatalf("DropSet: %v", err)
	}
	if bp.UsedBytes() != 0 {
		t.Errorf("UsedBytes = %d after drop, want 0", bp.UsedBytes())
	}
	if _, ok := bp.GetSet("s"); ok {
		t.Error("dropped set still visible")
	}
	if _, err := s.NewPage(); err == nil {
		t.Error("NewPage on dropped set must fail")
	}
	// Dropping again is a no-op.
	if err := bp.DropSet(s); err != nil {
		t.Errorf("second DropSet: %v", err)
	}
}

// TestCreateSetConcurrentDuplicate is the regression test for the
// CreateSet TOCTOU race: two goroutines racing on the same name must
// produce exactly one winner, no orphan registry entry, and no leaked pfs
// file from the loser.
func TestCreateSetConcurrentDuplicate(t *testing.T) {
	dir := t.TempDir()
	arr, err := disk.NewArray(dir, 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := NewPool(PoolConfig{Memory: 1 << 20, Array: arr})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 25; round++ {
		name := fmt.Sprintf("dup%d", round)
		var wg sync.WaitGroup
		results := make([]*LocalitySet, 2)
		errs := make([]error, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g], errs[g] = bp.CreateSet(SetSpec{Name: name, PageSize: 4096})
			}(g)
		}
		wg.Wait()
		var winner *LocalitySet
		wins := 0
		for g := 0; g < 2; g++ {
			if errs[g] == nil {
				wins++
				winner = results[g]
			}
		}
		if wins != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1 (errs: %v)", round, wins, errs)
		}
		if got, ok := bp.GetSet(name); !ok || got != winner {
			t.Fatalf("round %d: GetSet(%q) = %v, %v; want the winner", round, name, got, ok)
		}
		if err := bp.DropSet(winner); err != nil {
			t.Fatalf("round %d: DropSet: %v", round, err)
		}
	}
	bp.regMu.RLock()
	orphans := len(bp.sets)
	bp.regMu.RUnlock()
	if orphans != 0 {
		t.Errorf("%d orphan sets left in the registry", orphans)
	}
	// Every winner was dropped; the losers must never have created a file.
	var leaked []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			leaked = append(leaked, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(leaked) != 0 {
		t.Errorf("leaked pfs files: %v", leaked)
	}
}

// TestCreateSetReleasesReservationOnFileError: a failed pfs.Create must
// release the name reservation and recycle the ID (no burned nextID).
func TestCreateSetReleasesReservationOnFileError(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	bad := "bad\x00name" // NUL makes the OS reject the file path
	if _, err := bp.CreateSet(SetSpec{Name: bad, PageSize: 4096}); err == nil {
		t.Fatal("CreateSet with an invalid file name should fail")
	}
	s, err := bp.CreateSet(SetSpec{Name: "good", PageSize: 4096})
	if err != nil {
		t.Fatalf("CreateSet after a failed create: %v", err)
	}
	if s.ID() != 0 {
		t.Errorf("set ID = %d, want 0: the failed create burned an ID", s.ID())
	}
	// The failed name must not be permanently reserved: retrying reports
	// the file error again, not a duplicate-name error.
	_, err = bp.CreateSet(SetSpec{Name: bad, PageSize: 4096})
	if err == nil {
		t.Fatal("invalid name should still fail")
	}
	if err.Error() == fmt.Sprintf("core: set %q already exists", bad) {
		t.Errorf("reservation leaked: %v", err)
	}
}

func TestConcurrentPinUnpin(t *testing.T) {
	const pageSize = 4096
	bp := newTestPool(t, 6*pageSize, nil)
	s, _ := bp.CreateSet(SetSpec{Name: "c", PageSize: pageSize})
	const n = 12
	for i := 0; i < n; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Bytes()[0] = byte(i)
		_ = s.Unpin(p, true)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 40; it++ {
				num := int64((w*7 + it) % n)
				p, err := s.Pin(num)
				if err != nil {
					errCh <- fmt.Errorf("pin %d: %w", num, err)
					return
				}
				if p.Bytes()[0] != byte(num) {
					errCh <- fmt.Errorf("page %d corrupt: %d", num, p.Bytes()[0])
				}
				if err := s.Unpin(p, false); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestFlushAllPersistsDirtyPages(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	s, _ := bp.CreateSet(SetSpec{Name: "f", PageSize: 4096})
	for i := 0; i < 5; i++ {
		p, _ := s.NewPage()
		p.Bytes()[0] = byte(i + 1)
		_ = s.Unpin(p, true)
	}
	if err := s.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if s.DiskBytes() < 5*4096 {
		t.Errorf("DiskBytes = %d, want >= %d", s.DiskBytes(), 5*4096)
	}
}

func TestPeakBytesTracksHighWater(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	s, _ := bp.CreateSet(SetSpec{Name: "s", PageSize: 8192})
	var pages []*Page
	for i := 0; i < 10; i++ {
		p, _ := s.NewPage()
		pages = append(pages, p)
	}
	peak := bp.PeakBytes()
	for _, p := range pages {
		_ = s.Unpin(p, false)
	}
	_ = bp.DropSet(s)
	if bp.PeakBytes() != peak || peak < 10*8192 {
		t.Errorf("PeakBytes = %d (was %d), want stable high-water >= %d", bp.PeakBytes(), peak, 10*8192)
	}
}
