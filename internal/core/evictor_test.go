package core

import (
	"errors"
	"testing"
	"time"

	"pangea/internal/disk"
)

// TestTimeoutErrSurfacesRecordedError is the regression test for the
// allocMem timeout path swallowing eviction errors: when the daemon
// recorded a policy/spill error after the waiter's observation point, a
// timed-out allocation must report that error, not a bare ErrNoEvictable.
func TestTimeoutErrSurfacesRecordedError(t *testing.T) {
	bp := newTestPool(t, 1<<20, nil)
	e := bp.evictor

	_, seq := e.observe()
	if err := e.timeoutErr(seq); !errors.Is(err, ErrNoEvictable) {
		t.Fatalf("no recorded error: got %v, want ErrNoEvictable", err)
	}

	sentinel := errors.New("spill exploded")
	e.broadcast(sentinel)
	if err := e.timeoutErr(seq); !errors.Is(err, sentinel) {
		t.Fatalf("recorded error swallowed: got %v, want %v", err, sentinel)
	}

	// Errors recorded before the observation point are stale and must not
	// be replayed to later waiters.
	_, seq2 := e.observe()
	if err := e.timeoutErr(seq2); !errors.Is(err, ErrNoEvictable) {
		t.Fatalf("stale error replayed: got %v, want ErrNoEvictable", err)
	}
}

// TestAllocFailureSurfacesPolicyError: when the paging policy itself
// errors, the blocked allocation must report that error to its caller.
func TestAllocFailureSurfacesPolicyError(t *testing.T) {
	sentinel := errors.New("policy refused")
	bp := newTestPool(t, 5*4096, refusingPolicy{sentinel})
	s, err := bp.CreateSet(SetSpec{Name: "s", PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		p, err := s.NewPage()
		if err != nil {
			if !errors.Is(err, sentinel) {
				t.Fatalf("NewPage error = %v, want wrapped %v", err, sentinel)
			}
			break
		}
		if err := s.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
		if i > 64 {
			t.Fatal("pool never filled up")
		}
	}
}

type refusingPolicy struct{ err error }

func (p refusingPolicy) Name() string                                 { return "refuse" }
func (p refusingPolicy) SelectVictims(*PolicyView) ([]PageRef, error) { return nil, p.err }

// TestStaleKickSpillsNothing is the over-spill regression test: a kick
// that arrives with free memory above the watermarks and no allocation
// waiting must not run an eviction round at all — the seed guaranteed one
// round per kick unconditionally, spilling a batch of dirty pages nobody
// was waiting for.
func TestStaleKickSpillsNothing(t *testing.T) {
	const pageSize = 4096
	bp := newTestPool(t, 64*pageSize, nil)
	s, err := bp.CreateSet(SetSpec{Name: "idle", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8 // dirty evictable pages; free stays far above the high watermark
	for i := 0; i < n; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	bp.evictor.kick()
	waitEvictorIdle(t, bp)
	if got := bp.Stats().Spills.Load(); got != 0 {
		t.Errorf("stale kick spilled %d pages with no waiter and no watermark pressure", got)
	}
	if got := s.ResidentPages(); got != n {
		t.Errorf("stale kick evicted pages: %d resident, want %d", got, n)
	}
}

// TestNoSpillAfterLastWaiterServed: once the producer stops and the last
// blocked allocation has been served, the daemon must come to rest — no
// further spill I/O trickles out of leftover kicks, even though plenty of
// dirty evictable pages remain below the high watermark.
func TestNoSpillAfterLastWaiterServed(t *testing.T) {
	const pageSize = 4096
	bp := newTestPool(t, 16*pageSize, nil)
	s, err := bp.CreateSet(SetSpec{Name: "wb", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	waitEvictorIdle(t, bp)
	settled := bp.Stats().Spills.Load()
	if settled == 0 {
		t.Fatal("80 dirty pages through a 16-page pool must have spilled")
	}
	time.Sleep(50 * time.Millisecond)
	if got := bp.Stats().Spills.Load(); got != settled {
		t.Errorf("daemon kept spilling after the last waiter was served: %d -> %d", settled, got)
	}
}

// TestFreshKickAfterErrorRoundGetsFreshRound: an eviction round that fails
// (here: a transient whole-array write fault) must not wedge the daemon —
// allocations kicked after the fault clears get a fresh round and succeed,
// and the stale error is not replayed to them.
func TestFreshKickAfterErrorRoundGetsFreshRound(t *testing.T) {
	const pageSize = 4096
	arr, err := disk.NewArray(t.TempDir(), 1, disk.Unthrottled())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = arr.RemoveAll() })
	bp, err := NewPool(PoolConfig{Memory: 6 * pageSize, Array: arr, AllocTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("transient drive failure")
	arr.Disk(0).SetWriteFault(func() error { return sentinel })
	s, err := bp.CreateSet(SetSpec{Name: "wb", PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	written := 0
	for i := 0; i < 64 && sawErr == nil; i++ {
		p, err := s.NewPage()
		if err != nil {
			sawErr = err
			break
		}
		stamp(p.Bytes(), 9, p.Num())
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
		written++
	}
	if !errors.Is(sawErr, sentinel) {
		t.Fatalf("got %v, want the injected %v", sawErr, sentinel)
	}
	arr.Disk(0).SetWriteFault(nil)
	// Fresh kicks after the failed pass must produce fresh, healthy rounds.
	for i := 0; i < 8; i++ {
		p, err := s.NewPage()
		if err != nil {
			t.Fatalf("NewPage %d after the fault cleared: %v (stale error replayed or daemon wedged)", i, err)
		}
		stamp(p.Bytes(), 9, p.Num())
		if err := s.Unpin(p, true); err != nil {
			t.Fatal(err)
		}
	}
	// No page written before the fault may have been lost to it.
	for num := int64(0); num < int64(written); num++ {
		p, err := s.Pin(num)
		if err != nil {
			t.Fatalf("Pin(%d): %v", num, err)
		}
		if err := checkStamp(p.Bytes(), 9, num); err != nil {
			t.Error(err)
		}
		if err := s.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
}
