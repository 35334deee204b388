package paging

import (
	"errors"
	"fmt"

	"pangea/internal/core"
)

// ErrDBMINBlocked is returned when the sum of the desired locality set sizes
// exceeds the buffer pool: original DBMIN blocks new requests in this case
// (§3.2), which is how DBMIN-adaptive and DBMIN-1000 fail in Fig 3.
var ErrDBMINBlocked = errors.New("paging: DBMIN blocked: total desired locality set size exceeds pool")

// Sizer estimates the desired size (in pages) of one locality set, the way
// DBMIN's query locality set model derives a working-set budget per file
// instance. poolPages is the pool capacity expressed in this set's pages.
type Sizer func(s *core.SetSnapshot, poolPages int64) int64

// SizerFixed returns a sizer that assigns every set the same desired size,
// matching the paper's DBMIN-1 (n=1) and DBMIN-1000 (n=1000) strawmen.
func SizerFixed(n int64) Sizer {
	return func(*core.SetSnapshot, int64) int64 { return n }
}

// SizerAdaptive follows the QLSM estimation rules of Chou & DeWitt, with the
// reference pattern learned from the Pangea service attached to the set
// (§9.1.1, "the reference patterns are learned from Pangea-provided
// services"):
//
//   - straight sequential writing (sequential-write, concurrent-write with
//     no reader) needs a single page;
//   - looping sequential reading — the common read-after-write dataflow
//     pattern — wants the whole file resident, so the estimate is the set's
//     page count;
//   - random patterns (hash data) also want the whole working set resident.
//
// Because looping/random estimates equal the full set size, the total
// desired size can exceed the pool, and DBMIN blocks — exactly the failure
// mode in Fig 3.
func SizerAdaptive() Sizer {
	return func(s *core.SetSnapshot, _ int64) int64 {
		a := s.Attrs
		switch {
		case a.Reading == core.SequentialRead, a.Reading == core.RandomRead,
			a.Writing == core.RandomMutableWrite:
			n := s.TotalPages
			if n < 1 {
				n = 1
			}
			return n
		default:
			return 1
		}
	}
}

// SizerTuned is SizerAdaptive upper-bounded by the pool capacity: the
// paper's "tuned DBMIN" (§9.2.1) avoids blocking by capping each locality
// set size at the memory size.
func SizerTuned() Sizer {
	adaptive := SizerAdaptive()
	return func(s *core.SetSnapshot, poolPages int64) int64 {
		n := adaptive(s, poolPages)
		if n > poolPages {
			n = poolPages
		}
		return n
	}
}

// DBMIN implements the DBMIN buffer management strategy on top of Pangea's
// unified pool: each locality set has a desired size and a per-pattern
// replacement order; a set only gives up pages while it exceeds its desired
// size; and the policy blocks when the total desired size cannot fit.
type DBMIN struct {
	name  string
	sizer Sizer
	// block controls whether exceeding the pool is a hard failure (original
	// DBMIN) or is ignored (the tuned variant never triggers it by
	// construction, but the flag keeps the failure mode explicit).
	block bool
}

// NewDBMIN1 builds the DBMIN-1 baseline: every locality set size estimated
// as one page.
func NewDBMIN1() *DBMIN { return &DBMIN{name: "DBMIN-1", sizer: SizerFixed(1), block: true} }

// NewDBMIN1000 builds the DBMIN-1000 baseline: every locality set size
// estimated as 1000 pages.
func NewDBMIN1000() *DBMIN {
	return &DBMIN{name: "DBMIN-1000", sizer: SizerFixed(1000), block: true}
}

// NewDBMINAdaptive builds DBMIN with the QLSM size estimation.
func NewDBMINAdaptive() *DBMIN {
	return &DBMIN{name: "DBMIN-adaptive", sizer: SizerAdaptive(), block: true}
}

// NewDBMINTuned builds the non-blocking DBMIN variant with sizes capped at
// pool capacity.
func NewDBMINTuned() *DBMIN { return &DBMIN{name: "DBMIN-tuned", sizer: SizerTuned(), block: false} }

// Name implements core.Policy.
func (d *DBMIN) Name() string { return d.name }

// SelectVictims implements core.Policy over the pool snapshot.
func (d *DBMIN) SelectVictims(view *core.PolicyView) ([]core.PageRef, error) {
	// Blocking check: if the sum of desired sizes (in bytes) exceeds the
	// pool, original DBMIN refuses to admit the request.
	if d.block {
		var want int64
		for _, s := range view.Sets {
			poolPages := view.Capacity / s.PageSize
			want += d.sizer(s, poolPages) * s.PageSize
		}
		if want > view.Capacity {
			return nil, fmt.Errorf("%w (desired %d bytes > pool %d bytes)", ErrDBMINBlocked, want, view.Capacity)
		}
	}

	// Choose the set with the largest excess over its desired size and take
	// a batch from it using the set's own pattern-derived order.
	var victim *core.SetSnapshot
	var victimExcess int64
	for _, s := range view.Sets {
		poolPages := view.Capacity / s.PageSize
		excess := int64(s.Resident) - d.sizer(s, poolPages)
		if excess > victimExcess && len(s.Evictable) > 0 {
			victim, victimExcess = s, excess
		}
	}
	if victim == nil {
		// No set exceeds its budget but memory is still short: fall back to
		// draining the set with the most evictable pages so allocation can
		// proceed (a unified pool has no reserved partitions to steal from).
		for _, s := range view.Sets {
			if n := len(s.Evictable); n > 0 && (victim == nil || n > len(victim.Evictable)) {
				victim = s
			}
		}
	}
	if victim == nil {
		return nil, nil
	}
	batch := victim.VictimBatch()
	if victimExcess > 0 && int64(len(batch)) > victimExcess {
		batch = batch[:victimExcess]
	}
	return batch, nil
}
