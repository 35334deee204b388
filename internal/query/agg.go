package query

import (
	"fmt"
	"math"
	"sync"

	"pangea/internal/core"
	"pangea/internal/services"
)

// Agg is a hash aggregation as data (Table 2: Hash + Aggregate). The group
// key is a few key columns packed into one key of at most 8 bytes, their
// values back to back, little-endian — the key of the result map too. Each
// group accumulates one float64 per fold, and a fold reads 1-, 2- and 4-byte
// columns as unsigned integers and 8-byte ones as float64. Every fold is a
// loop over a batch's lanes, run once a batch: no call per row.
type Agg struct {
	// Keys are the group-by columns, 1, 2, 4 or 8 bytes wide and at most 8
	// bytes together; none puts every row in one group.
	Keys []int
	// KeyFn, if set, computes the key instead, for a key no column holds
	// (k-means' nearest centroid): once a batch, one key per lane of sel
	// into keys. KeyWidth is its width in bytes; Keys is then empty.
	KeyFn    func(b *Batch, sel []int32, keys []uint64)
	KeyWidth int
	Folds    []Fold
}

// Fold is one accumulator: its group's lane count, or the sum, minimum or
// maximum of each lane's product of Factors.
type Fold struct {
	Op      FoldOp
	Factors []Factor
}

// FoldOp is what a fold accumulates.
type FoldOp uint8

const (
	FoldCount FoldOp = iota
	FoldSum
	FoldMin
	FoldMax
)

// Factor is a column's value v as Base+v, or as Base−v with Neg set.
type Factor struct {
	Col  int
	Base float64
	Neg  bool
}

func Of(c int) Factor       { return Factor{Col: c} }
func OneMinus(c int) Factor { return Factor{Col: c, Base: 1, Neg: true} }
func OnePlus(c int) Factor  { return Factor{Col: c, Base: 1} }

func Count() Fold                  { return Fold{Op: FoldCount} }
func Sum(c int) Fold               { return SumProduct(Of(c)) }
func SumProduct(fs ...Factor) Fold { return Fold{Op: FoldSum, Factors: fs} }
func Min(c int) Fold               { return Fold{Op: FoldMin, Factors: []Factor{Of(c)}} }
func Max(c int) Fold               { return Fold{Op: FoldMax, Factors: []Factor{Of(c)}} }

// zero is an accumulator before any lane; merge folds the partial x into
// acc.
func (op FoldOp) zero() float64 {
	switch op {
	case FoldMin:
		return math.Inf(1)
	case FoldMax:
		return math.Inf(-1)
	}
	return 0
}

func (op FoldOp) merge(acc, x float64) float64 {
	switch op {
	case FoldMin:
		return min(acc, x)
	case FoldMax:
		return max(acc, x)
	}
	return acc + x
}

// ValSize is a group's accumulator width in bytes.
func (a Agg) ValSize() int { return 8 * len(a.Folds) }

// Combine merges the accumulators src into dst: across threads, spilled
// partials and nodes.
func (a Agg) Combine(dst, src []byte) {
	for f, fd := range a.Folds {
		putF64(dst[8*f:], fd.Op.merge(f64(dst[8*f:]), f64(src[8*f:])))
	}
}

func f64(b []byte) float64       { return math.Float64frombits(le.Uint64(b)) }
func putF64(b []byte, v float64) { le.PutUint64(b, math.Float64bits(v)) }

// keyWidth returns the key's width, checking that the columns a reads are
// b's and 1, 2, 4 or 8 bytes wide.
func (a Agg) keyWidth(b *Batch) (int, error) {
	bad := func(c int) error {
		if c >= 0 && c < b.NumCols() {
			switch b.Width(c) {
			case 1, 2, 4, 8:
				return nil
			}
		}
		return fmt.Errorf("query: aggregate over column %d of %d, or of a width not 1, 2, 4 or 8", c, b.NumCols())
	}
	w := a.KeyWidth
	for _, c := range a.Keys {
		if err := bad(c); err != nil {
			return 0, err
		}
		w += b.Width(c)
	}
	for _, fd := range a.Folds {
		for _, f := range fd.Factors {
			if err := bad(f.Col); err != nil {
				return 0, err
			}
		}
	}
	if w < 0 || w > 8 {
		return 0, fmt.Errorf("query: aggregate key of %d bytes, at most 8", w)
	}
	return w, nil
}

// aggRoots is the root partition count of each scan thread's hash buffer,
// and 2^dirLog the size of its group directory.
const aggRoots, dirLog = 4, 12

// hashAgg is one node's local aggregation stage (Table 2: "Aggregate: local
// stage"): each scan thread folds into its own virtual hash buffer, all
// paging into one temp locality set, so execution state lives in the buffer
// pool and spills as partial aggregates under pressure like any other set.
type hashAgg struct {
	spec    Agg
	pool    *core.BufferPool
	set     *core.LocalitySet
	threads []*aggThread
}

// aggThread is one scan thread's fold state. Its directory maps a key to
// its slot in a hash page; an entry is good while the buffer retires no
// page, so a key seen since the last retire never probes a page again. A
// batch folds in segments: a segment numbers the groups its lanes meet
// densely, each fold sums into a dense vector, and the totals go into the
// slots when it ends — at the batch's end, or before a page retires.
type aggThread struct {
	h     *services.VirtualHashBuffer
	dir   []dirEntry
	epoch uint32    // Retires()+1 of the buffer when the live entries were made
	seg   uint32    // the current segment
	keys  []uint64  // per lane: its key
	u     []uint64  // a column's lanes, read for a key or a fold
	ids   []int32   // per lane: its group in the segment
	vals  [][]byte  // per segment group: its slot
	acc   []float64 // fold f of segment group g at acc[f*len(vals)+g]
	cols  []colVals // per column: its lanes' values in the segment
	x     []float64 // per lane: a fold's product
	kb    [8]byte   // a key's bytes, as the hash pages hold it
}

type dirEntry struct {
	key        uint64
	epoch, seg uint32
	g          int32 // its group in segment seg
	val        []byte
}

type colVals struct {
	seg uint32
	v   []float64
}

// threadPool keeps threads' directories and vectors from one aggregation to
// the next.
var threadPool = sync.Pool{New: func() any { return &aggThread{dir: make([]dirEntry, 1<<dirLog), seg: 1} }}

// newAgg creates the temp set and one hash buffer per thread. Every buffer
// pins one active page per root partition; the page size keeps all of them
// together within a sixteenth of the pool, so the aggregation composes with
// the scan feeding it and a join map beside it under memory pressure.
func newAgg(bp *core.BufferPool, name string, threads int, spec Agg) (*hashAgg, error) {
	if len(spec.Folds) == 0 {
		return nil, fmt.Errorf("query: aggregate %q has no fold", name)
	}
	pageSize := min(max(bp.Capacity()/int64(16*aggRoots*threads), 8<<10), 256<<10)
	set, err := bp.CreateSet(core.SetSpec{Name: name, PageSize: pageSize})
	if err != nil {
		return nil, err
	}
	a := &hashAgg{spec: spec, pool: bp, set: set}
	for range threads {
		h, err := services.NewVirtualHashBuffer(set, aggRoots, spec.ValSize(), spec.Combine)
		if err != nil {
			_ = bp.DropSet(set) // reporting the constructor's error
			return nil, err
		}
		// A pooled thread's segments count on, so its column vectors are
		// stale; its directory is cleared.
		t := threadPool.Get().(*aggThread)
		clear(t.dir)
		t.h, t.epoch = h, 1
		a.threads = append(a.threads, t)
	}
	return a, nil
}

// add folds a batch's selected rows into the thread's partial state.
func (a *hashAgg) add(thread int, b *Batch) error {
	t := a.threads[thread]
	kw, err := a.spec.keyWidth(b)
	if err != nil {
		return err
	}
	sel := b.Sel()
	t.keys, t.ids = a.spec.keysOf(b, sel, t), grow(t.ids, len(sel))
	start := 0
	for k, key := range t.keys {
		e := &t.dir[(key*0x9E3779B97F4A7C15)>>(64-dirLog)]
		if e.epoch != t.epoch || e.key != key {
			le.PutUint64(t.kb[:], key)
			val, fresh := t.h.SlotIn(t.kb[:kw])
			if val == nil {
				// Slot may retire a page, and the slots of the lanes since
				// start with it: fold those first.
				t.fold(a.spec, b, sel[start:k], t.ids[start:k])
				start = k
				if val, fresh, err = t.h.Slot(t.kb[:kw]); err != nil {
					return err
				}
				t.epoch = uint32(t.h.Retires()) + 1
			}
			if fresh {
				for f, fd := range a.spec.Folds {
					putF64(val[8*f:], fd.Op.zero())
				}
			}
			*e = dirEntry{key: key, epoch: t.epoch, val: val}
		}
		if e.seg != t.seg {
			e.seg, e.g = t.seg, int32(len(t.vals))
			t.vals = append(t.vals, e.val)
		}
		t.ids[k] = e.g
	}
	t.fold(a.spec, b, sel[start:], t.ids[start:])
	return nil
}

// keysOf packs each lane of sel's key.
func (a Agg) keysOf(b *Batch, sel []int32, t *aggThread) []uint64 {
	keys := grow(t.keys, len(sel))
	if a.KeyFn != nil {
		a.KeyFn(b, sel, keys)
		return keys
	}
	clear(keys)
	shift := 0
	for _, c := range a.Keys {
		t.u = b.lanes(c, sel, t.u)
		for k, v := range t.u {
			keys[k] |= v << shift
		}
		shift += 8 * b.Width(c)
	}
	return keys
}

// fold folds the lanes of sel, lane k into segment group ids[k], and then
// the segment's totals into their slots, which ends the segment.
func (t *aggThread) fold(a Agg, b *Batch, sel, ids []int32) {
	n := len(t.vals)
	if n == 0 {
		return
	}
	t.acc = grow(t.acc, len(a.Folds)*n)
	for f, fd := range a.Folds {
		acc := t.acc[f*n : f*n+n]
		for g := range acc {
			acc[g] = fd.Op.zero()
		}
		if fd.Op == FoldCount {
			for _, g := range ids {
				acc[g]++
			}
			continue
		}
		x := t.product(b, fd.Factors, sel)[:len(ids)]
		switch fd.Op {
		case FoldSum:
			for k, g := range ids {
				acc[g] += x[k]
			}
		case FoldMin:
			for k, g := range ids {
				acc[g] = min(acc[g], x[k])
			}
		case FoldMax:
			for k, g := range ids {
				acc[g] = max(acc[g], x[k])
			}
		}
	}
	for g, val := range t.vals {
		for f, fd := range a.Folds {
			putF64(val[8*f:], fd.Op.merge(f64(val[8*f:]), t.acc[f*n+g]))
		}
	}
	t.vals = t.vals[:0]
	t.seg++
}

// product returns each lane of sel's product of fs.
func (t *aggThread) product(b *Batch, fs []Factor, sel []int32) []float64 {
	if len(fs) == 1 && fs[0] == Of(fs[0].Col) {
		return t.column(b, fs[0].Col, sel)
	}
	x := grow(t.x, len(sel))
	t.x = x
	for k := range x {
		x[k] = 1
	}
	for _, f := range fs {
		v, base, sign := t.column(b, f.Col, sel)[:len(x)], f.Base, 1.0
		if f.Neg {
			sign = -1
		}
		for k := range x {
			x[k] *= base + sign*v[k]
		}
	}
	return x
}

// column returns column c's value on each lane of sel, converted once a
// segment however many folds read it.
func (t *aggThread) column(b *Batch, c int, sel []int32) []float64 {
	if len(t.cols) <= c {
		t.cols = append(t.cols, make([]colVals, c+1-len(t.cols))...)
	}
	cv := &t.cols[c]
	if cv.seg != t.seg {
		u := b.lanes(c, sel, t.u)
		v := grow(cv.v, len(u))
		t.u, cv.seg, cv.v = u, t.seg, v
		if b.Width(c) == 8 {
			for k, w := range u {
				v[k] = math.Float64frombits(w)
			}
		} else {
			for k, w := range u {
				v[k] = float64(w)
			}
		}
	}
	return cv.v
}

// result merges every thread's partials — resident and spilled — into one
// map and drops the temp set. Call it exactly once, after a failed scan too.
func (a *hashAgg) result() (map[string][]byte, error) {
	var err error
	for _, t := range a.threads {
		if cerr := t.h.Close(); err == nil {
			err = cerr
		}
	}
	var out map[string][]byte
	if err == nil {
		// Result walks every hash page of the set, whichever buffer wrote it.
		out, err = a.threads[0].h.Result()
	}
	for _, t := range a.threads {
		t.h = nil
		threadPool.Put(t)
	}
	if derr := a.pool.DropSet(a.set); err == nil {
		err = derr
	}
	return out, err
}

// Aggregate folds the batches run hands fn into agg's per-thread partials,
// held in hash-service pages of a temp set named tmp in bp, and merges them
// into one map when run returns. run calls fn from up to threads
// goroutines, thread t's calls all from one.
func Aggregate(bp *core.BufferPool, tmp string, threads int, agg Agg, run func(fn func(thread int, b *Batch) error) error) (map[string][]byte, error) {
	a, err := newAgg(bp, tmp, threads, agg)
	if err != nil {
		return nil, err
	}
	err = run(a.add)
	out, rerr := a.result()
	if err != nil {
		return nil, err
	}
	return out, rerr
}
