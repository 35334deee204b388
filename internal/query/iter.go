// Package query implements the distributed relational query processor the
// paper builds on top of Pangea to run TPC-H (§9.1.2, Table 2): scan,
// filter, flatten, hash, broadcast/partitioned hash map construction, join,
// two-stage aggregation, pipelines, and query scheduling that consults the
// statistics service to pick co-partitioned replicas.
//
// Rows are raw byte records stored in locality sets; operators compose as
// push-based iterators so a whole pipeline runs over each page while it is
// pinned — the paper's pipelining of joins with other computations.
package query

import (
	"sync"
	"sync/atomic"

	"pangea/internal/core"
	"pangea/internal/services"
)

// Row is one relational record in its set's binary layout.
type Row = []byte

// Iter is a push-based row stream: it calls emit for every row, stopping on
// error. Operators wrap Iters, forming the paper's Pipeline module.
type Iter func(emit func(Row) error) error

// Warm hints that an imminent operator will read the whole set (e.g. the
// build side of a join the scheduler has just picked), prefetching every
// non-resident page that has an on-disk image. Best-effort: it returns the
// number of reads issued and never blocks on memory.
func Warm(set *core.LocalitySet) int {
	return set.Prefetch(set.PageNums())
}

// Filter drops rows failing the predicate (Table 2: Filter).
func Filter(in Iter, pred func(Row) bool) Iter {
	return func(emit func(Row) error) error {
		return in(func(r Row) error {
			if !pred(r) {
				return nil
			}
			return emit(r)
		})
	}
}

// Flatten maps one row to zero or more rows (Table 2: Flatten). fn calls
// out for each produced row.
func Flatten(in Iter, fn func(r Row, out func(Row) error) error) Iter {
	return func(emit func(Row) error) error {
		return in(func(r Row) error {
			return fn(r, emit)
		})
	}
}

// Map transforms each row one-to-one.
func Map(in Iter, fn func(Row) (Row, error)) Iter {
	return func(emit func(Row) error) error {
		return in(func(r Row) error {
			out, err := fn(r)
			if err != nil {
				return err
			}
			return emit(out)
		})
	}
}

// Count drains the stream and returns the row count.
func Count(in Iter) (int64, error) {
	var n atomic.Int64
	err := in(func(Row) error {
		n.Add(1)
		return nil
	})
	return n.Load(), err
}

// partials hands each emitting goroutine its own accumulator state and
// remembers every state it ever created, so multi-threaded sinks build
// per-thread partials and merge them once at the end, instead of
// serializing every row behind one sink mutex. Iter's emit carries no
// thread index (and sinks must keep working for plain single-goroutine
// Iters), so states live on a free list: an emit borrows one for the
// duration of a single row, which under a multi-threaded Scan settles into
// one state per worker without any state ever being shared between two
// rows at once. The borrow lock only pops and pushes a pointer — the
// per-row work itself runs unserialized.
//
// max > 0 caps how many states exist; borrowers beyond the cap wait for a
// free one. Sinks whose states pin buffer-pool pages use the cap to keep
// the combined pinned footprint inside the set's memory entitlement.
type partials[S any] struct {
	mu   sync.Mutex
	cond sync.Cond
	free []*S
	all  []*S
	max  int // >0 caps live states; 0 = one per concurrent borrower
	init func(*S) error
	err  error // first state-constructor failure; sticky
}

func newPartials[S any](init func(*S) error) (*partials[S], error) {
	return newBoundedPartials(0, init)
}

func newBoundedPartials[S any](max int, init func(*S) error) (*partials[S], error) {
	p := &partials[S]{max: max, init: init}
	p.cond.L = &p.mu
	// Create the first state eagerly so constructor errors surface before
	// the scan starts instead of on some mid-stream row.
	s, err := p.get()
	if err != nil {
		return nil, err
	}
	p.put(s)
	return p, nil
}

func (p *partials[S]) get() (*S, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.err != nil {
			return nil, p.err
		}
		if n := len(p.free); n > 0 {
			s := p.free[n-1]
			p.free = p.free[:n-1]
			return s, nil
		}
		if p.max <= 0 || len(p.all) < p.max {
			s := new(S)
			if p.init != nil {
				if err := p.init(s); err != nil {
					p.err = err
					p.cond.Broadcast()
					return nil, err
				}
			}
			p.all = append(p.all, s)
			return s, nil
		}
		p.cond.Wait()
	}
}

func (p *partials[S]) put(s *S) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
	p.cond.Signal()
}

// borrow runs fn with a state no other goroutine is using.
func (p *partials[S]) borrow(fn func(*S) error) error {
	s, err := p.get()
	if err != nil {
		return err
	}
	err = fn(s)
	p.put(s)
	return err
}

// states returns every state ever handed out, for the final merge.
func (p *partials[S]) states() []*S {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.all
}

// Collect drains the stream into a slice, copying each row (rows emitted by
// Scan alias pinned pages and are invalid after the scan). Each scan thread
// appends to its own partial slice; the partials are concatenated at the
// end, so row order across threads is unspecified (as it already was).
func Collect(in Iter) ([]Row, error) {
	type bucket struct{ rows []Row }
	parts, _ := newPartials[bucket](nil)
	err := in(func(r Row) error {
		return parts.borrow(func(b *bucket) error {
			b.rows = append(b.rows, append(Row(nil), r...))
			return nil
		})
	})
	var rows []Row
	for _, b := range parts.states() {
		rows = append(rows, b.rows...)
	}
	return rows, err
}

// Materialize writes the stream into a locality set through the sequential
// write service and returns the row count.
func Materialize(in Iter, out *core.LocalitySet) (int64, error) {
	w := services.NewSeqWriter(out)
	var mu sync.Mutex
	err := in(func(r Row) error {
		mu.Lock()
		defer mu.Unlock()
		return w.Add(r)
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return w.Count(), err
}
