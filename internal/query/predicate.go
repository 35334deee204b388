package query

import (
	"fmt"
	"math"

	"pangea/internal/services"
)

// The predicate algebra: declarative filter expressions over fixed-width
// columns that one ScanSpec pushes down through every layer of a scan — a
// microindex lookup and a zone-map prune check that drop whole pages before
// they are pinned, read, or speculated on, and one evaluator, the typed Sel*
// batch kernels, for the rows of the pages that remain, whichever layout
// they are stored in. An opaque func(Row) bool can only do the last; the
// scanner cannot see inside it, which is why the scan API takes a Predicate
// instead.
//
// Column indices address the scan's schema ([]services.ColumnSpec): for
// columnar sets the set's own column order, for row sets whatever schema the
// caller passes in ScanSpec. Integer comparisons use the column's unsigned
// little-endian interpretation; ColRangeF64 is the float64 view.

// PruneStats is the per-page summary surface a predicate consults to prove
// pages empty of matches — implemented by *services.ZoneMap. All methods are
// conservative: ok=false (or MayContain=true) means "cannot exclude".
type PruneStats interface {
	// ColRangeU returns the page's [min,max] for a column under the
	// unsigned interpretation.
	ColRangeU(pageNum int64, col int) (lo, hi uint64, ok bool)
	// ColRangeF64 returns the page's [min,max] for an 8-byte column under
	// the float64 interpretation.
	ColRangeF64(pageNum int64, col int) (lo, hi float64, ok bool)
	// MayContain reports whether the page may hold value v in the column.
	MayContain(pageNum int64, col int, v uint64) bool
}

// PointIndex is the candidate-lookup surface a microindex exposes to
// equality predicates — implemented by *services.Microindex. Unlike
// PruneStats it is authoritative, not conservative: an answered lookup
// asserts that every row holding the value is in the result, so pages
// absent from it are excluded outright and so are the rows of a page it does
// not name. ScanSpec therefore only consults a PointIndex after Covers
// confirms the index describes every page the scan would visit.
//
// An answer is a list of ascending locations, page<<32 | lane, where a lane
// is a record's index on its page (its position in RecordOffsets order, or
// its row on a columnar page). A page whose rows the index cannot vouch for
// appears once, with lane services.LaneAll, and is scanned whole.
type PointIndex interface {
	// Covers reports whether every page 0..n-1 is described by the index.
	Covers(n int64) bool
	// Lookup returns the locations of the rows that may hold value v in
	// column col, in a slice the caller owns. ok=false means the column is
	// not indexed and nothing can be concluded; ok=true with an empty
	// result means no row holds v.
	Lookup(col int, v uint64) (locs []uint64, ok bool)
}

// Predicate is one filter expression. Implementations are the algebra's
// node types (ColRange, ColRangeF64, ColEq, ColLess, And, Or, RowPred); the
// methods are unexported because the set of compilation targets is the scan
// API's concern, not an extension point.
type Predicate interface {
	// check validates the predicate against the scan's schema before any
	// page is read: a column index out of range or a width the node cannot
	// handle errors here.
	check(schema []services.ColumnSpec) error
	// applyBatch narrows a batch's selection to the matching rows — the
	// predicate's one evaluator.
	applyBatch(b *Batch)
	// prune reports whether the page provably holds no matching row.
	prune(stats PruneStats, pageNum int64) bool
	// indexPages answers the predicate from a point index: the locations
	// (see PointIndex) of the rows that may match. ok=false means the
	// predicate's shape (or the index's column set) cannot answer it, and
	// the scan falls back to every row of every page; an answered result is
	// authoritative and must not omit any row that could match.
	indexPages(idx PointIndex) (locs []uint64, ok bool)
}

// schemaCol validates a column index against the schema.
func schemaCol(schema []services.ColumnSpec, c int) (services.ColumnSpec, error) {
	if c < 0 || c >= len(schema) {
		return services.ColumnSpec{}, fmt.Errorf("query: predicate column %d out of range [0,%d)", c, len(schema))
	}
	return schema[c], nil
}

// uintCol validates that column c exists and has an unsigned-integer width.
func uintCol(node string, schema []services.ColumnSpec, c int) error {
	spec, err := schemaCol(schema, c)
	if err != nil {
		return err
	}
	switch spec.Width {
	case 1, 2, 4, 8:
		return nil
	}
	return fmt.Errorf("query: %s over column %d of width %d", node, c, spec.Width)
}

// widthMax returns the largest value a w-byte unsigned column can hold.
func widthMax(w int) uint64 {
	if w >= 8 {
		return math.MaxUint64
	}
	return 1<<(8*w) - 1
}

// batchU reads one unsigned lane from a batch, any width.
func batchU(b *Batch, c, row int) uint64 {
	switch b.Width(c) {
	case 1:
		return uint64(b.Byte(c, row))
	case 2:
		return uint64(b.U16(c, row))
	case 4:
		return uint64(b.U32(c, row))
	default:
		return b.U64(c, row)
	}
}

// selNone clears a batch's selection — the compiled form of a vacuously
// false predicate (e.g. an empty range).
func selNone(b *Batch) { b.sel = b.selOut()[:0] }

// ColRange keeps rows with Lo <= col < Hi under the column's unsigned
// interpretation — the half-open integer range node (dates, quantities,
// keys). An empty range (Hi <= Lo) matches nothing, and so prunes every
// page. The one value a width-8 range cannot reach is MaxUint64 itself
// (Hi is exclusive); use ColEq for that point.
type ColRange struct {
	Col    int
	Lo, Hi uint64
}

func (p ColRange) check(schema []services.ColumnSpec) error {
	return uintCol("ColRange", schema, p.Col)
}

func (p ColRange) applyBatch(b *Batch) {
	w := b.Width(p.Col)
	maxV := widthMax(w)
	if p.Hi <= p.Lo || p.Lo > maxV {
		selNone(b)
		return
	}
	if w < 8 && p.Hi > maxV {
		// The range is unbounded above within this column's domain.
		if p.Lo > 0 {
			b.narrow(func(i int32) bool { return batchU(b, p.Col, int(i)) >= p.Lo })
		}
		return
	}
	switch w {
	case 1:
		b.SelByteRange(p.Col, p.Lo, p.Hi)
	case 2:
		b.SelU16Range(p.Col, uint16(p.Lo), uint16(p.Hi))
	case 4:
		b.SelU32Range(p.Col, uint32(p.Lo), uint32(p.Hi))
	default:
		b.SelU64Range(p.Col, p.Lo, p.Hi)
	}
}

func (p ColRange) prune(stats PruneStats, pageNum int64) bool {
	if p.Hi <= p.Lo {
		return true
	}
	min, max, ok := stats.ColRangeU(pageNum, p.Col)
	return ok && (max < p.Lo || min >= p.Hi)
}

func (p ColRange) indexPages(PointIndex) ([]uint64, bool) { return nil, false }

// ColRangeF64 keeps rows with Lo <= col <= Hi under the float64
// interpretation of an 8-byte column — closed on both ends, the shape of
// TPC-H's discount band. NaN lanes never match.
type ColRangeF64 struct {
	Col    int
	Lo, Hi float64
}

func (p ColRangeF64) check(schema []services.ColumnSpec) error {
	spec, err := schemaCol(schema, p.Col)
	if err == nil && spec.Width != 8 {
		err = fmt.Errorf("query: ColRangeF64 over column %d of width %d, want 8", p.Col, spec.Width)
	}
	return err
}

func (p ColRangeF64) applyBatch(b *Batch) { b.SelF64Range(p.Col, p.Lo, p.Hi) }

func (p ColRangeF64) prune(stats PruneStats, pageNum int64) bool {
	min, max, ok := stats.ColRangeF64(pageNum, p.Col)
	return ok && (max < p.Lo || min > p.Hi)
}

func (p ColRangeF64) indexPages(PointIndex) ([]uint64, bool) { return nil, false }

// ColEq keeps rows whose column equals V — the equality node, and the one
// that exploits a zone map's bloom filter: min/max cannot prune a point
// probe on an unclustered column, a bloom usually can.
type ColEq struct {
	Col int
	V   uint64
}

func (p ColEq) check(schema []services.ColumnSpec) error {
	return uintCol("ColEq", schema, p.Col)
}

func (p ColEq) applyBatch(b *Batch) {
	w := b.Width(p.Col)
	switch {
	case p.V > widthMax(w):
		selNone(b)
	case w == 1:
		b.SelByteEq(p.Col, byte(p.V))
	case p.V == widthMax(w):
		// V+1 would wrap the kernel's exclusive bound; evaluate directly.
		b.narrow(func(i int32) bool { return batchU(b, p.Col, int(i)) == p.V })
	case w == 2:
		b.SelU16Range(p.Col, uint16(p.V), uint16(p.V)+1)
	case w == 4:
		b.SelU32Range(p.Col, uint32(p.V), uint32(p.V)+1)
	default:
		b.SelU64Range(p.Col, p.V, p.V+1)
	}
}

func (p ColEq) prune(stats PruneStats, pageNum int64) bool {
	return !stats.MayContain(pageNum, p.Col, p.V)
}

// indexPages is the node the microindex exists for: a point probe answers
// directly from the value's postings.
func (p ColEq) indexPages(idx PointIndex) ([]uint64, bool) {
	return idx.Lookup(p.Col, p.V)
}

// ColLess keeps rows whose column A is less than column B, both unsigned
// and of one width — a cross-column compare (TPC-H's commit-before-receipt
// dates). A zone map's per-column bounds cannot prove it false, and a point
// index cannot answer it, so it never prunes.
type ColLess struct{ A, B int }

func (p ColLess) check(schema []services.ColumnSpec) error {
	if err := uintCol("ColLess", schema, p.A); err != nil {
		return err
	}
	if err := uintCol("ColLess", schema, p.B); err != nil {
		return err
	}
	if schema[p.A].Width != schema[p.B].Width {
		return fmt.Errorf("query: ColLess over columns %d and %d of widths %d and %d", p.A, p.B, schema[p.A].Width, schema[p.B].Width)
	}
	return nil
}

func (p ColLess) applyBatch(b *Batch) { b.SelLess(p.A, p.B) }

func (p ColLess) prune(PruneStats, int64) bool { return false }

func (p ColLess) indexPages(PointIndex) ([]uint64, bool) { return nil, false }

// And is the conjunction of its children: each child narrows the batch
// selection in turn, and a page any child can prune is pruned. An empty And
// matches everything.
type And []Predicate

func (p And) check(schema []services.ColumnSpec) error { return checkAll(p, schema) }

func checkAll(ps []Predicate, schema []services.ColumnSpec) error {
	for _, c := range ps {
		if err := c.check(schema); err != nil {
			return err
		}
	}
	return nil
}

func (p And) applyBatch(b *Batch) {
	for _, c := range p {
		c.applyBatch(b)
	}
}

func (p And) prune(stats PruneStats, pageNum int64) bool {
	for _, c := range p {
		if c.prune(stats, pageNum) {
			return true
		}
	}
	return false
}

// indexPages intersects the answers of whichever children the index can
// answer: a conjunction's matches lie in every child's candidate set, so one
// answered child is enough, and unanswerable children simply don't narrow.
func (p And) indexPages(idx PointIndex) ([]uint64, bool) {
	var out []uint64
	answered := false
	for _, c := range p {
		pages, ok := c.indexPages(idx)
		if !ok {
			continue
		}
		if !answered {
			out, answered = pages, true
			continue
		}
		out = intersectLocs(out, pages)
	}
	return out, answered
}

// Or is the disjunction of its children: a row matches if any child does,
// and a page is pruned only if every child prunes it. An empty Or matches
// nothing (and still prunes no page — vacuous disjunctions aren't worth a
// special case in the prune path).
type Or []Predicate

func (p Or) check(schema []services.ColumnSpec) error { return checkAll(p, schema) }

// applyBatch cannot let the children narrow in turn (each would intersect):
// every child narrows its own copy of the incoming selection and marks its
// survivors, and the incoming lanes any child marked are the union.
func (p Or) applyBatch(b *Batch) {
	in := append(b.scratch(0), b.Sel()...)
	marks := b.scratch(b.n)
	clear(marks)
	for _, c := range p {
		b.sel = append(b.sel[:0], in...)
		c.applyBatch(b)
		for _, i := range b.sel {
			marks[i] = 1
		}
	}
	out := b.sel[:0]
	for _, i := range in {
		if marks[i] != 0 {
			out = append(out, i)
		}
	}
	b.sel = out
	b.release(in)
	b.release(marks)
}

func (p Or) prune(stats PruneStats, pageNum int64) bool {
	if len(p) == 0 {
		return false
	}
	for _, c := range p {
		if !c.prune(stats, pageNum) {
			return false
		}
	}
	return true
}

// indexPages unions the children's answers — sound only when every child is
// answered, since a single unanswerable child could match anywhere. An empty
// Or stays unanswered, mirroring the prune path's treatment of vacuous
// disjunctions.
func (p Or) indexPages(idx PointIndex) ([]uint64, bool) {
	if len(p) == 0 {
		return nil, false
	}
	var out []uint64
	for _, c := range p {
		pages, ok := c.indexPages(idx)
		if !ok {
			return nil, false
		}
		out = unionLocs(out, pages)
	}
	return out, true
}

// RowPred is the escape hatch: an opaque row closure for the filter shapes
// the algebra cannot express (cross-column comparisons, decoded string
// probes). Evaluation materializes each candidate row — free on a row page,
// a re-stitch on a columnar one — and no page is ever pruned by it, so keep
// the selective, column-local parts of a filter in algebra nodes and put
// only the residual here, typically under an And.
type RowPred func(Row) bool

func (p RowPred) check([]services.ColumnSpec) error {
	if p == nil {
		return fmt.Errorf("query: nil RowPred")
	}
	return nil
}

func (p RowPred) applyBatch(b *Batch) {
	b.narrow(func(i int32) bool { return p(b.MaterializeRow(int(i), nil)) })
}

func (p RowPred) prune(PruneStats, int64) bool { return false }

func (p RowPred) indexPages(PointIndex) ([]uint64, bool) { return nil, false }

// whole reports whether a location stands for every row of its page.
func whole(loc uint64) bool { return uint32(loc) == services.LaneAll }

func samePage(a, b uint64) bool { return a>>32 == b>>32 }

// intersectLocs merges two answers into their intersection: the lanes both
// name survive, and a page one answer scans whole keeps the other's lanes
// (or stays whole). LaneAll is the largest lane, so a page's whole location
// sorts after its lanes.
func intersectLocs(a, b []uint64) []uint64 {
	out := make([]uint64, 0, min(len(a), len(b)))
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch x, y := a[i], b[j]; {
		case x == y || samePage(x, y) && (whole(x) || whole(y)):
			out = append(out, min(x, y))
			i, j = i+b2i(x <= y), j+b2i(y <= x)
		case x < y:
			i++
		default:
			j++
		}
	}
	return out
}

// unionLocs merges two answers into their deduplicated union, in which a page
// either answer scans whole is scanned whole.
func unionLocs(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var loc uint64
		if j == len(b) || (i < len(a) && a[i] <= b[j]) {
			loc, i = a[i], i+1
		} else {
			loc, j = b[j], j+1
		}
		for whole(loc) && len(out) > 0 && samePage(out[len(out)-1], loc) {
			out = out[:len(out)-1] // the page's lanes, which sort before it
		}
		if n := len(out); n == 0 || out[n-1] != loc {
			out = append(out, loc)
		}
	}
	return out
}
