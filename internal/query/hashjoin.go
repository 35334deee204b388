package query

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pangea/internal/core"
	"pangea/internal/services"
)

// Join is a hash join's build side (Table 2: "Build broadcast/partitioned
// hash map" + Join) — one plain binary hash join; whether the build input
// is a broadcast copy or a co-partitioned replica is the plan's choice of
// set, not a different operator.
//
// Build: Add inserts a batch's selected rows — the key is one column's
// value, and of the rest only the columns the plan will read after the join
// are projected, into pages of the join map service's temp set, so a large
// build side spills like any other set. Probe: Semi and Anti narrow a
// batch's selection to the rows with (without) a match; Inner expands it,
// emitting one output row per matching (probe row, build record) pair; Mark
// marks the build records a row matches, so that a plan can build from the
// smaller input of a semi or anti join and read the build records the probe
// did (not) reach with Marked. The probe is a loop over the key vector with
// no per-row closure or allocation, and pins each build page a batch's
// matches touch once.
type Join struct {
	pool   *core.BufferPool
	set    *core.LocalitySet
	m      *services.JoinMap
	widths []int // widths of the projected build columns

	mu  sync.Mutex // serializes builders
	rec []byte     // Add's payload scratch, under mu

	marks []atomic.Uint32 // per build record, a bit Mark sets; sized by Seal
}

// NewJoin creates the build side's temp set, named name, in bp. payload
// lists the byte widths of the build columns Add will project; none keeps
// keys only, which is all a semi or anti join needs.
func NewJoin(bp *core.BufferPool, name string, pageSize int64, payload ...int) (*Join, error) {
	set, err := bp.CreateSet(core.SetSpec{Name: name, PageSize: pageSize})
	if err != nil {
		return nil, err
	}
	width := 0
	for _, w := range payload {
		width += w
	}
	m, err := services.NewJoinMap(set, width)
	if err != nil {
		_ = bp.DropSet(set) // reporting the constructor's error
		return nil, err
	}
	return &Join{pool: bp, set: set, m: m, widths: payload, rec: make([]byte, 0, width)}, nil
}

// Insert adds one build record from raw bytes — for build sides that are not
// scans, such as an aggregate's result. Safe for concurrent use.
func (j *Join) Insert(key, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.m.Insert(key, payload)
}

// Add inserts b's selected rows: keyCol's value is the key, the values of
// cols (whose widths must be NewJoin's payload widths) the payload. Safe to
// call from every thread of the build scan.
func (j *Join) Add(b *Batch, keyCol int, cols ...int) error {
	if len(cols) != len(j.widths) {
		return fmt.Errorf("query: join build projects %d columns, join made for %d", len(cols), len(j.widths))
	}
	for k, c := range cols {
		if b.Width(c) != j.widths[k] {
			return fmt.Errorf("query: join build column %d is %d bytes wide, join made for %d", c, b.Width(c), j.widths[k])
		}
	}
	key, kw := b.Col(keyCol), b.Width(keyCol)
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, i := range b.Sel() {
		rec := j.rec[:0]
		for k, c := range cols {
			w := j.widths[k]
			rec = append(rec, b.Col(c)[int(i)*w:int(i)*w+w]...)
		}
		if err := j.m.Insert(key[int(i)*kw:int(i)*kw+kw], rec); err != nil {
			return err
		}
	}
	return nil
}

// Seal ends the build; the join is probe-only from here on, from any number
// of threads.
func (j *Join) Seal() error {
	j.marks = make([]atomic.Uint32, (j.m.Len()+31)/32)
	return j.m.Seal()
}

// Drop releases the build side's temp set.
func (j *Join) Drop() error { return j.pool.DropSet(j.set) }

// Semi narrows b's selection to the rows whose keyCol value has a match on
// the build side (EXISTS).
func (j *Join) Semi(b *Batch, keyCol int) { j.narrow(b, keyCol, true) }

// Anti narrows b's selection to the rows with no match (NOT EXISTS).
func (j *Join) Anti(b *Batch, keyCol int) { j.narrow(b, keyCol, false) }

func (j *Join) narrow(b *Batch, keyCol int, want bool) {
	key, w := b.Col(keyCol), b.Width(keyCol)
	sel := b.Sel()
	out := sel[:0]
	for _, i := range sel {
		if (j.head(key, w, i) >= 0) == want {
			out = append(out, i)
		}
	}
	b.sel = out
}

// head returns the most recent build record under row i's key, or -1.
func (j *Join) head(key []byte, w int, i int32) int32 {
	if w == 8 {
		return j.m.HeadWord(le.Uint64(key[8*i:]))
	}
	return j.m.Head(key[int(i)*w : int(i)*w+w])
}

// Mark marks every build record under the keyCol value of one of b's
// selected rows. Safe to call from every thread of the probe scan.
func (j *Join) Mark(b *Batch, keyCol int) {
	key, w := b.Col(keyCol), b.Width(keyCol)
	for _, i := range b.Sel() {
		for r := j.head(key, w, i); r >= 0; r = j.m.Next(r) {
			m, bit := &j.marks[r/32], uint32(1)<<(r%32)
			for old := m.Load(); old&bit == 0 && !m.CompareAndSwap(old, old|bit); old = m.Load() { // an atomic Or
			}
		}
	}
}

// Marked presents the build records Mark reached (marked) or did not
// (!marked) to fn as batches of their projected build columns, every row
// selected, on the calling goroutine as thread 0. Call it once the probe
// has ended.
func (j *Join) Marked(marked bool, fn func(thread int, b *Batch) error) error {
	out := batchPool.Get().(*Batch)
	defer batchPool.Put(out)
	for r, n := 0, j.m.Len(); r < n; {
		recs := out.recs[:0]
		for ; r < n && len(recs) < 4096; r++ {
			if (j.marks[r/32].Load()&(1<<(r%32)) != 0) == marked {
				recs = append(recs, int32(r))
			}
		}
		if len(recs) == 0 {
			continue
		}
		out.recs, out.buf, out.sel, out.n = recs, nil, nil, len(recs)
		out.shape(len(j.widths))
		if err := j.payloads(out, 0); err != nil {
			return err
		}
		if err := fn(0, out); err != nil {
			return err
		}
	}
	return nil
}

// Inner joins b's selected rows with the build side on keyCol and emits the
// result into out, a batch the calling thread owns and reuses: one row per
// matching (probe row, build record) pair, every row selected, whose columns
// are b's columns listed in carry followed by the build side's projected
// columns. out is valid until the thread's next Inner into it.
func (j *Join) Inner(b *Batch, keyCol int, carry []int, out *Batch) error {
	key, w := b.Col(keyCol), b.Width(keyCol)
	rows, recs := out.selBuf[:0], out.recs[:0]
	for _, i := range b.Sel() {
		for r := j.head(key, w, i); r >= 0; r = j.m.Next(r) {
			rows, recs = append(rows, i), append(recs, r)
		}
	}
	out.selBuf, out.recs = rows[:cap(rows)], recs
	out.buf, out.sel, out.n = nil, nil, len(rows)
	out.shape(len(carry) + len(j.widths))
	for k, c := range carry {
		cw, src := b.Width(c), b.Col(c)
		v := grow(out.store[k], len(rows)*cw)
		for lane, i := range rows {
			copy(v[lane*cw:lane*cw+cw], src[int(i)*cw:])
		}
		out.widths[k], out.cols[k], out.store[k] = cw, v, v
	}
	return j.payloads(out, len(carry))
}

// payloads gathers the build payloads of out.recs into out's columns from
// column c0 on.
func (j *Join) payloads(out *Batch, c0 int) error {
	recs := out.recs
	var err error
	if out.pay, err = j.m.Gather(recs, out.pay, &out.gs); err != nil {
		return err
	}
	// The gathered payloads are the build columns row by row; split them
	// into vectors (a lone column already is one).
	stride, off := j.m.Width(), 0
	for k, cw := range j.widths {
		c := c0 + k
		v := out.pay
		if len(j.widths) > 1 {
			v = grow(out.store[c], len(recs)*cw)
			for lane := range recs {
				copy(v[lane*cw:lane*cw+cw], out.pay[lane*stride+off:])
			}
			out.store[c] = v
		}
		out.widths[c], out.cols[c] = cw, v
		off += cw
	}
	return nil
}
