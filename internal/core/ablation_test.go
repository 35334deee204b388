package core

import (
	"testing"
	"time"

	"pangea/internal/disk"
)

// The ablation in this file probes the data-aware priority model's (§6)
// 1-page vs 10% eviction batch rule; the file also holds the pool's hot-path
// micro-benchmarks.

// newAblationPool builds a pool with lightly throttled disks so paging
// decisions have a measurable cost.
func newAblationPool(tb testing.TB, mem int64) *BufferPool {
	tb.Helper()
	arr, err := disk.NewArray(tb.TempDir(), 1, disk.Config{
		ReadMBps: 300, WriteMBps: 250, SeekLatency: 40 * time.Microsecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	bp, err := NewPool(PoolConfig{Memory: mem, Array: arr})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = arr.RemoveAll() })
	return bp
}

// TestEvictionBatchRuleReducesSpillsUnderWrite verifies the asymmetric
// batch rule of §6: while a set is being written, taking a single victim
// page avoids evicting fresh output that is about to be read. We compare
// spilled-page counts for a write-then-immediately-read loop under the
// normal rule vs a set mislabelled as read-only (which loses 10% at once).
func TestEvictionBatchRuleReducesSpillsUnderWrite(t *testing.T) {
	run := func(mislabel bool) int64 {
		bp := newAblationPool(t, 10*(16<<10))
		s, err := bp.CreateSet(SetSpec{Name: "s", PageSize: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if mislabel {
			s.SetCurrentOp(OpRead)
		} else {
			s.SetCurrentOp(OpWrite)
		}
		for i := 0; i < 40; i++ {
			p, err := s.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Unpin(p, true); err != nil {
				t.Fatal(err)
			}
			// Immediately re-read the page just written.
			q, err := s.Pin(int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Unpin(q, false); err != nil {
				t.Fatal(err)
			}
		}
		return bp.Stats().Loads.Load()
	}
	correct, mislabelled := run(false), run(true)
	if correct > mislabelled {
		t.Errorf("write-labelled run re-loaded %d pages, read-labelled %d; the 1-page rule should protect fresh output", correct, mislabelled)
	}
}

// BenchmarkPinUnpinHit measures the hot path: pinning a resident page.
func BenchmarkPinUnpinHit(b *testing.B) {
	bp := newAblationPool(b, 1<<20)
	s, err := bp.CreateSet(SetSpec{Name: "s", PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	p, err := s.NewPage()
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Unpin(p, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Pin(0)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Unpin(p, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewPageWithEviction measures page allocation under constant
// memory pressure (every allocation evicts).
func BenchmarkNewPageWithEviction(b *testing.B) {
	bp := newAblationPool(b, 8*4096)
	s, err := bp.CreateSet(SetSpec{Name: "s", PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.NewPage()
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Unpin(p, false); err != nil {
			b.Fatal(err)
		}
	}
}
