package core

import (
	"bytes"
	"testing"

	"pangea/internal/disk"
)

// TestShrinkSpillReloadSameBytes: a shrunk write-back page that spills from
// a small pool and is pinned again reads back its bytes, in a full frame
// whose tail is zeros.
func TestShrinkSpillReloadSameBytes(t *testing.T) {
	const pageSize = 4 << 10
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := NewPool(PoolConfig{Memory: 4 * pageSize, Array: arr, Policy: lruPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := bp.CreateSet(SetSpec{Name: "wb", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 1000)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	copy(p.Bytes(), want)
	used := bp.UsedBytes()
	if !s.Shrink(p, 1008) {
		t.Fatal("Shrink with the only pin held did nothing")
	}
	if p.Size() != 1008 || len(p.Bytes()) != 1008 {
		t.Fatalf("shrunk page has Size %d and %d bytes, want 1008", p.Size(), len(p.Bytes()))
	}
	if got := used - bp.UsedBytes(); got != pageSize-1008 {
		t.Fatalf("UsedBytes dropped by %d, want %d", got, pageSize-1008)
	}
	if err := s.Unpin(p, true); err != nil {
		t.Fatal(err)
	}
	// Fill the pool until page 0 has been spilled and its frame freed.
	for i := 0; s.isResident(0); i++ {
		if i > 64 {
			t.Fatal("page 0 never left the pool")
		}
		q, err := s.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Unpin(q, true); err != nil {
			t.Fatal(err)
		}
	}
	p, err = s.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unpin(p, false)
	got := p.Bytes()
	if p.Size() != pageSize || len(got) != pageSize {
		t.Fatalf("reloaded page has Size %d and %d bytes, want a full %d-byte frame", p.Size(), len(got), pageSize)
	}
	if !bytes.Equal(got[:len(want)], want) {
		t.Fatal("reloaded page's bytes differ from those written before the shrink")
	}
	if !bytes.Equal(got[1008:], make([]byte, pageSize-1008)) {
		t.Fatal("reloaded page's tail beyond the shrunk size is not zeros")
	}
	checkResidencyGauges(t, []*LocalitySet{s})
}

// lruPolicy evicts the least recently used evictable page.
type lruPolicy struct{}

func (lruPolicy) Name() string { return "lru" }

func (lruPolicy) SelectVictims(v *PolicyView) ([]PageRef, error) {
	pages := v.EvictablePages()
	if len(pages) == 0 {
		return nil, nil
	}
	oldest := pages[0]
	for _, r := range pages[1:] {
		if r.LastRef < oldest.LastRef {
			oldest = r
		}
	}
	return []PageRef{oldest}, nil
}

// isResident reports whether page num is in the set's resident map.
func (s *LocalitySet) isResident(num int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident[num] != nil
}

// TestShrinkWithSecondPinIsNoOp: a reader holding a pin may hold a slice of
// the tail, so Shrink changes nothing until the writer's is the only pin.
func TestShrinkWithSecondPinIsNoOp(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	s, err := bp.CreateSet(SetSpec{Name: "s", PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := s.Pin(p.Num())
	if err != nil {
		t.Fatal(err)
	}
	used, resident := bp.UsedBytes(), s.ResidentBytes()
	if s.Shrink(p, 64) {
		t.Fatal("Shrink with a second pin held reported a shrink")
	}
	if p.Size() != 4096 || bp.UsedBytes() != used || s.ResidentBytes() != resident {
		t.Fatalf("Shrink with a second pin moved Size to %d, UsedBytes %d → %d, ResidentBytes %d → %d",
			p.Size(), used, bp.UsedBytes(), resident, s.ResidentBytes())
	}
	if err := s.Unpin(reader, false); err != nil {
		t.Fatal(err)
	}
	if !s.Shrink(p, 64) || p.Size() != 64 {
		t.Fatalf("Shrink with the only pin held: Size %d, want 64", p.Size())
	}
	if err := s.Unpin(p, true); err != nil {
		t.Fatal(err)
	}
	// An unpinned page is not the caller's to shrink.
	if s.Shrink(p, 32) || p.Size() != 64 {
		t.Fatalf("Shrink of an unpinned page: Size %d, want 64", p.Size())
	}
}

// TestShrinkKeepsGaugesExact: at quiescence ResidentBytes is the sum of the
// resident pages' Size and UsedBytes is their blocks, headers included; a
// tail too small to be a block changes nothing; DropSet gives everything
// back.
func TestShrinkKeepsGaugesExact(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	s, err := bp.CreateSet(SetSpec{Name: "s", PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{4096, 16, 1000, 4096 - 16, 2048, 4096 - 48}
	wantUsed := int64(0)
	for i, n := range sizes {
		p, err := s.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		shrunk := s.Shrink(p, n)
		if want := n < 4096-16; shrunk != want {
			t.Errorf("page %d: Shrink(4096 → %d) = %v, want %v", i, n, shrunk, want)
		}
		if !shrunk {
			n = 4096
		}
		if p.Size() != n {
			t.Errorf("page %d: Size %d, want %d", i, p.Size(), n)
		}
		wantUsed += (n+15)&^15 + 16
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	checkResidencyGauges(t, []*LocalitySet{s})
	if got := bp.UsedBytes(); got != wantUsed {
		t.Errorf("UsedBytes = %d, want the pages' blocks %d", got, wantUsed)
	}
	if err := bp.DropSet(s); err != nil {
		t.Fatal(err)
	}
	if bp.UsedBytes() != 0 || s.ResidentBytes() != 0 {
		t.Errorf("after DropSet: UsedBytes %d, ResidentBytes %d, want 0", bp.UsedBytes(), s.ResidentBytes())
	}
}
