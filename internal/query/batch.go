package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"pangea/internal/core"
	"pangea/internal/services"
)

// Batch is one page worth of a columnar set presented batch-at-a-time: the
// column vectors of a pinned page plus a selection index vector that
// predicates narrow. The column slices are zero-copy views of the pinned
// page (late materialization: rows are only reassembled at sinks, and only
// for selected lanes) — they alias the buffer pool's arena and are invalid
// once the scan moves past the page.
type Batch struct {
	page   services.ColumnarPage
	n      int
	sel    []int32 // selected row indices; nil = all n rows selected
	selBuf []int32 // reused selection storage across pages
	rowBuf []byte  // reused MaterializeRow scratch
}

// reset points the batch at a new page buffer and selects every row.
func (b *Batch) reset(buf []byte) error {
	if err := b.page.Reset(buf); err != nil {
		return err
	}
	b.n = b.page.NumRows()
	b.sel = nil
	return nil
}

// NumRows returns the page's row count, before selection.
func (b *Batch) NumRows() int { return b.n }

// NumCols returns the number of columns.
func (b *Batch) NumCols() int { return b.page.NumCols() }

// Col returns column c's full vector (NumRows values, selection not
// applied). The slice aliases the pinned page.
func (b *Batch) Col(c int) []byte { return b.page.Col(c) }

// Width returns the byte width of column c.
func (b *Batch) Width(c int) int { return b.page.Width(c) }

// Selected returns how many rows the current selection keeps.
func (b *Batch) Selected() int {
	if b.sel == nil {
		return b.n
	}
	return len(b.sel)
}

// Sel returns the selected row indices, materializing the all-rows
// selection if no predicate has run yet. The slice is reused across pages.
func (b *Batch) Sel() []int32 {
	if b.sel == nil {
		b.selBuf = grow(b.selBuf, b.n)
		for i := range b.selBuf {
			b.selBuf[i] = int32(i)
		}
		b.sel = b.selBuf
	}
	return b.sel
}

// Typed lane accessors; row is a row index (typically drawn from Sel).

func (b *Batch) Byte(c, row int) byte { return b.page.Col(c)[row] }

func (b *Batch) U16(c, row int) uint16 {
	return binary.LittleEndian.Uint16(b.page.Col(c)[row*2:])
}

func (b *Batch) U32(c, row int) uint32 {
	return binary.LittleEndian.Uint32(b.page.Col(c)[row*4:])
}

func (b *Batch) U64(c, row int) uint64 {
	return binary.LittleEndian.Uint64(b.page.Col(c)[row*8:])
}

func (b *Batch) F64(c, row int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.page.Col(c)[row*8:]))
}

// MaterializeRow reassembles one row into record form by appending its
// column values to dst — the late-materialization sink, paid only for rows
// that survived selection. The default dst of nil uses (and returns) a
// scratch buffer owned by the batch, overwritten by the next call.
func (b *Batch) MaterializeRow(row int, dst []byte) []byte {
	if dst == nil {
		b.rowBuf = b.page.AppendRow(b.rowBuf[:0], row)
		return b.rowBuf
	}
	return b.page.AppendRow(dst, row)
}

func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// narrow runs keep over the current selection and installs the surviving
// indices as the new selection. The survivors are written into the batch's
// reused selection buffer; writing lane j always trails reading lane i
// (j ≤ i), so narrowing in place over the previous selection is safe.
func (b *Batch) narrow(keep func(row int32) bool) {
	if b.sel == nil {
		out := grow(b.selBuf, b.n)[:0]
		for i := int32(0); i < int32(b.n); i++ {
			if keep(i) {
				out = append(out, i)
			}
		}
		b.selBuf, b.sel = out[:cap(out)], out
		return
	}
	out := b.sel[:0]
	for _, i := range b.sel {
		if keep(i) {
			out = append(out, i)
		}
	}
	b.sel = out
}

// FilterBatch narrows the selection with an arbitrary row predicate — the
// generic kernel; the typed Sel* kernels below are the fast paths for
// common fixed-width comparisons, each a branch-light loop over one column
// vector.
func FilterBatch(b *Batch, pred func(b *Batch, row int) bool) {
	b.narrow(func(i int32) bool { return pred(b, int(i)) })
}

// The typed Sel* kernels below spell their loops out instead of going
// through narrow: the per-row indirect call a closure costs is the
// difference between a vectorizable compare loop and a row-at-a-time
// dispatch, and these kernels sit on the hot path of every selective scan.

// SelU16Range keeps rows with lo <= col[row] < hi.
func (b *Batch) SelU16Range(c int, lo, hi uint16) {
	col := b.page.Col(c)
	if b.sel == nil {
		b.selBuf = grow(b.selBuf, b.n)
		out := b.selBuf[:0]
		for i := 0; i < b.n; i++ {
			if v := binary.LittleEndian.Uint16(col[i*2:]); v >= lo && v < hi {
				out = append(out, int32(i))
			}
		}
		b.sel = out
		return
	}
	out := b.sel[:0]
	for _, i := range b.sel {
		if v := binary.LittleEndian.Uint16(col[i*2:]); v >= lo && v < hi {
			out = append(out, i)
		}
	}
	b.sel = out
}

// SelU32Range keeps rows with lo <= col[row] < hi.
func (b *Batch) SelU32Range(c int, lo, hi uint32) {
	col := b.page.Col(c)
	if b.sel == nil {
		b.selBuf = grow(b.selBuf, b.n)
		out := b.selBuf[:0]
		for i := 0; i < b.n; i++ {
			if v := binary.LittleEndian.Uint32(col[i*4:]); v >= lo && v < hi {
				out = append(out, int32(i))
			}
		}
		b.sel = out
		return
	}
	out := b.sel[:0]
	for _, i := range b.sel {
		if v := binary.LittleEndian.Uint32(col[i*4:]); v >= lo && v < hi {
			out = append(out, i)
		}
	}
	b.sel = out
}

// SelF64Range keeps rows with lo <= col[row] <= hi (closed interval, the
// shape of TPC-H's discount band predicate).
func (b *Batch) SelF64Range(c int, lo, hi float64) {
	col := b.page.Col(c)
	if b.sel == nil {
		b.selBuf = grow(b.selBuf, b.n)
		out := b.selBuf[:0]
		for i := 0; i < b.n; i++ {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(col[i*8:])); v >= lo && v <= hi {
				out = append(out, int32(i))
			}
		}
		b.sel = out
		return
	}
	out := b.sel[:0]
	for _, i := range b.sel {
		if v := math.Float64frombits(binary.LittleEndian.Uint64(col[i*8:])); v >= lo && v <= hi {
			out = append(out, i)
		}
	}
	b.sel = out
}

// SelU64Range keeps rows with lo <= col[row] < hi.
func (b *Batch) SelU64Range(c int, lo, hi uint64) {
	col := b.page.Col(c)
	if b.sel == nil {
		b.selBuf = grow(b.selBuf, b.n)
		out := b.selBuf[:0]
		for i := 0; i < b.n; i++ {
			if v := binary.LittleEndian.Uint64(col[i*8:]); v >= lo && v < hi {
				out = append(out, int32(i))
			}
		}
		b.sel = out
		return
	}
	out := b.sel[:0]
	for _, i := range b.sel {
		if v := binary.LittleEndian.Uint64(col[i*8:]); v >= lo && v < hi {
			out = append(out, i)
		}
	}
	b.sel = out
}

// SelByteRange keeps rows with lo <= col[row] < hi over a 1-byte column.
// Bounds are uint64 — the predicate algebra's value domain — so hi=256
// still expresses a half-open interval covering the whole byte range.
func (b *Batch) SelByteRange(c int, lo, hi uint64) {
	col := b.page.Col(c)
	if b.sel == nil {
		b.selBuf = grow(b.selBuf, b.n)
		out := b.selBuf[:0]
		for i := 0; i < b.n; i++ {
			if v := uint64(col[i]); v >= lo && v < hi {
				out = append(out, int32(i))
			}
		}
		b.sel = out
		return
	}
	out := b.sel[:0]
	for _, i := range b.sel {
		if v := uint64(col[i]); v >= lo && v < hi {
			out = append(out, i)
		}
	}
	b.sel = out
}

// SelByteEq keeps rows whose 1-byte column equals v.
func (b *Batch) SelByteEq(c int, v byte) {
	col := b.page.Col(c)
	if b.sel == nil {
		b.selBuf = grow(b.selBuf, b.n)
		out := b.selBuf[:0]
		for i := 0; i < b.n; i++ {
			if col[i] == v {
				out = append(out, int32(i))
			}
		}
		b.sel = out
		return
	}
	out := b.sel[:0]
	for _, i := range b.sel {
		if col[i] == v {
			out = append(out, i)
		}
	}
	b.sel = out
}

// scanBatchesOver is the batch-scan substrate under ScanSpec.RunBatches:
// numThreads page iterators sharing one cursor (with the same read-ahead
// hinting as the row scan) over an explicit page list, so a prune can drop
// pages up front.
// One Batch per pinned page, each thread reusing a single Batch so the
// steady state allocates nothing; fn's batch — including any column slice
// taken from it — is invalid after fn returns, when the page is released.
func scanBatchesOver(set *core.LocalitySet, nums []int64, numThreads int, fn func(thread int, b *Batch) error) error {
	if set.Layout() != core.LayoutColumnar {
		return fmt.Errorf("query: batch scan over %q, a %s-layout set", set.Name(), set.Layout())
	}
	iters := services.PageIteratorsFor(set, nums, numThreads)
	var wg sync.WaitGroup
	errCh := make(chan error, len(iters))
	for t, it := range iters {
		wg.Add(1)
		go func(t int, it *services.PageIterator) {
			defer wg.Done()
			var b Batch
			for {
				p, err := it.Next()
				if err != nil {
					errCh <- err
					return
				}
				if p == nil {
					return
				}
				if err = b.reset(p.Bytes()); err == nil {
					err = fn(t, &b)
				}
				if uerr := it.Release(p); err == nil {
					err = uerr
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(t, it)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	set.SetCurrentOp(core.OpNone)
	return nil
}

// ProjectBatch materializes the selected rows of a batch and feeds them to
// emit in record form — the bridge from a batch pipeline into row sinks.
// Rows alias a scratch buffer reused per row (the same validity contract as
// rows emitted by Scan).
func ProjectBatch(b *Batch, emit func(Row) error) error {
	for _, i := range b.Sel() {
		if err := emit(b.MaterializeRow(int(i), nil)); err != nil {
			return err
		}
	}
	return nil
}

// BatchAggSpec defines a hash aggregation over batches. Unlike AggSpec's
// init-into-scratch contract, Accumulate folds a selected lane directly
// into the group's accumulator, so one group touched by many rows never
// round-trips through a per-row scratch value.
type BatchAggSpec struct {
	// Key appends the grouping key of the given row to dst and returns the
	// extended slice (dst arrives empty with reused capacity).
	Key func(b *Batch, row int, dst []byte) []byte
	// ValSize is the accumulator width in bytes.
	ValSize int
	// Accumulate folds row into val, which starts zeroed for a new group.
	Accumulate func(b *Batch, row int, val []byte)
	// Combine merges src into dst, for cross-thread and cross-node merges.
	Combine func(dst, src []byte)
}

// AggBatch folds a batch's selected rows into the partial result map.
// keyBuf is reused scratch for key extraction; the returned slice replaces
// it.
func AggBatch(b *Batch, spec BatchAggSpec, m map[string][]byte, keyBuf []byte) []byte {
	for _, i := range b.Sel() {
		keyBuf = spec.Key(b, int(i), keyBuf[:0])
		val, ok := m[string(keyBuf)]
		if !ok {
			val = make([]byte, spec.ValSize)
			m[string(keyBuf)] = val
		}
		spec.Accumulate(b, int(i), val)
	}
	return keyBuf
}
