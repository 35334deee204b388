package services

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"pangea/internal/core"
)

// rowPage frames recs, in order, into one single-region row page, the way a
// SeqWriter fills one.
func rowPage(recs ...[]byte) []byte {
	size := pageHeaderSize + 2*recHeaderSize
	for _, r := range recs {
		size += recHeaderSize + len(r)
	}
	buf := make([]byte, size)
	initPage(buf, size-pageHeaderSize)
	off := pageHeaderSize
	for _, r := range recs {
		off, _ = appendRecord(buf, off, len(buf), r)
	}
	return buf
}

// noteRows frames recs into one row page and folds it into x as page num.
func noteRows(t testing.TB, x sideIndexer, num int64, recs ...[]byte) {
	t.Helper()
	if err := x.base().NotePage(num, rowPage(recs...)); err != nil {
		t.Fatal(err)
	}
}

// recordFold is the per-record fold that the page folds replaced, kept as
// their reference. It folds one record, or one columnar row, at a time into
// a fresh index's page table: a zone map's summary value by value with the
// comparisons the fold made, a microindex's postings pair by pair, sorted
// and deduplicated by a comparison sort only when marshalled.
type recordFold struct {
	s     *sideIndex
	pairs [][]posting // a microindex's, per indexed column
}

// fitsLoc reports whether a location can name lane on page num: the page
// number fits 32 bits and the lane 31, the largest selection index.
func fitsLoc(num, lane int64) bool { return num <= math.MaxUint32 && lane <= math.MaxInt32 }

func newRecordFold(x sideIndexer) *recordFold {
	s := x.base()
	return &recordFold{s: s, pairs: make([][]posting, len(s.cols))}
}

// note folds rec into row page num at the page's next lane. A record shorter
// than the schema, or one no location can name, invalidates the page.
func (r *recordFold) note(num int64, rec []byte) {
	s := r.s
	p := s.page(num)
	if len(rec) < s.rowSize || !fitsLoc(num, p.rows) {
		s.invalidate(num, p)
		return
	}
	if !p.valid {
		return
	}
	first, loc := p.rows == 0, uint64(num)<<32|uint64(p.rows)
	for _, f := range s.folded {
		r.fold(p.sum, loc, f, readU(rec[f.offset:], f.width), first)
	}
	p.rows++
}

// notePage folds every record WalkPage finds on a row page, in its order.
func (r *recordFold) notePage(num int64, page []byte) error {
	return WalkPage(page, func(rec []byte) error {
		r.note(num, rec)
		return nil
	})
}

// noteColumnar folds a columnar page row by row; a page folded again
// restarts each column's summary at its first row.
func (r *recordFold) noteColumnar(num int64, cp *ColumnarPage) {
	s := r.s
	p := s.page(num)
	n := cp.NumRows()
	if !slices.Equal(cp.widths, s.widths) || !fitsLoc(num, int64(n)-1) {
		s.invalidate(num, p)
	}
	if !p.valid {
		return
	}
	for _, f := range s.folded {
		seg := cp.Col(f.col)
		for i := 0; i < n; i++ {
			r.fold(p.sum, uint64(num)<<32|uint64(i), f, readU(seg[i*f.width:], f.width), i == 0)
		}
	}
	p.rows = int64(n)
}

// fold adds one value of column f at loc; first marks the page's first row.
func (r *recordFold) fold(sum []byte, loc uint64, f foldCol, u uint64, first bool) {
	z, ok := r.s.sum.(*ZoneMap)
	if !ok {
		r.pairs[f.slot] = append(r.pairs[f.slot], posting{u, loc})
		return
	}
	s := sum[zoneColBytes*f.col:][:zoneColBytes]
	if first || u < le.Uint64(s[zMinU:]) {
		le.PutUint64(s[zMinU:], u)
	}
	if first || u > le.Uint64(s[zMaxU:]) {
		le.PutUint64(s[zMaxU:], u)
	}
	if f.width == 8 {
		v := math.Float64frombits(u)
		minF, maxF := math.Float64frombits(le.Uint64(s[zMinF:])), math.Float64frombits(le.Uint64(s[zMaxF:]))
		switch {
		case math.IsNaN(v):
			le.PutUint64(s[zMinF:], nanBits)
			le.PutUint64(s[zMaxF:], nanBits)
		case first:
			le.PutUint64(s[zMinF:], u)
			le.PutUint64(s[zMaxF:], u)
		case !math.IsNaN(minF):
			if v < minF {
				le.PutUint64(s[zMinF:], u)
			}
			if v > maxF {
				le.PutUint64(s[zMaxF:], u)
			}
		}
	}
	if f.slot >= 0 {
		bloomSet(z.bloom(sum, f.slot), u)
	}
}

// marshal gives a microindex the pairs folded, in order and without
// repeats, and returns the side object.
func (r *recordFold) marshal() []byte {
	if m, ok := r.s.sum.(*Microindex); ok {
		for slot, pairs := range r.pairs {
			slices.SortFunc(pairs, comparePostings)
			m.post[slot].body = slices.Compact(pairs)
		}
	}
	return r.s.Marshal()
}

// pageFoldSchema is key u64 (unique), tag u16 (repeating), f f64 (NaN, −0
// and +0 among others), flag u8; the zone map blooms key and tag, the
// microindex indexes both.
func pageFoldSchema() []ColumnSpec {
	return MakeSchema([]string{"key", "tag", "f", "flag"}, pageFoldWidths)
}

var pageFoldWidths = []int{8, 2, 8, 1}

func pageFoldRec(i int, f float64) []byte {
	r := make([]byte, 19)
	binary.LittleEndian.PutUint64(r[0:], uint64(i)*0x9E3779B97F4A7C15)
	binary.LittleEndian.PutUint16(r[8:], uint16(i%7))
	binary.LittleEndian.PutUint64(r[10:], math.Float64bits(f))
	r[18] = byte(i % 3)
	return r
}

// pageFoldFloat gives row i a float: +0, −0 or a small value, and NaN once.
func pageFoldFloat(i int) float64 {
	switch {
	case i == 57:
		return math.NaN()
	case i%4 == 0:
		return 0
	case i%4 == 1:
		return math.Copysign(0, -1)
	}
	return float64(i%9) - 2
}

// pageFoldKinds builds a fresh zone map and microindex over pageFoldSchema.
func pageFoldKinds(t *testing.T) []sideIndexer {
	t.Helper()
	z, err := NewZoneMap(ZoneMapSpec{Schema: pageFoldSchema(), BloomCols: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMicroindex(MicroindexSpec{Schema: pageFoldSchema(), Cols: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return []sideIndexer{z, m}
}

func marshalOf(x sideIndexer) []byte { return x.base().Marshal() }

// TestPageFoldMatchesRecordFold: the page folds build the same side objects,
// byte for byte, as the per-record fold they replaced. For a row set and a
// columnar set written through a writer carrying both kinds, the objects the
// writer's hooks built, the ones a rebuild by scan builds, and the
// reference's over the same pages must marshal alike; so must pages noted
// directly — one-row pages, pages of −0 beside +0 in either order, a NaN, a
// ragged row page (invalid after its first two rows) and a columnar page
// sealed twice.
func TestPageFoldMatchesRecordFold(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		layout := map[bool]string{false: "row", true: "columnar"}[columnar]
		bp := newPool(t, 1<<20)
		spec := core.SetSpec{Name: "p", PageSize: 512}
		if columnar {
			spec.Layout, spec.Columns = core.LayoutColumnar, pageFoldWidths
		}
		set, err := bp.CreateSet(spec)
		if err != nil {
			t.Fatal(err)
		}
		w := NewSeqWriter(set)
		z, err := AttachZoneMap(w, ZoneMapSpec{Schema: pageFoldSchema(), BloomCols: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		m, err := AttachMicroindex(w, MicroindexSpec{Schema: pageFoldSchema(), Cols: []int{1, 0}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if err := w.Add(pageFoldRec(i, pageFoldFloat(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for k, hooked := range []sideIndexer{z, m} {
			rebuilt, ref := pageFoldKinds(t)[k], newRecordFold(pageFoldKinds(t)[k])
			if err := rebuilt.base().rebuildFromScan(set, set.NumPages()); err != nil {
				t.Fatal(err)
			}
			for num := int64(0); num < set.NumPages(); num++ {
				p, err := set.Pin(num)
				if err != nil {
					t.Fatal(err)
				}
				if columnar {
					var view ColumnarPage
					if err = view.Reset(p.Bytes()); err == nil {
						ref.noteColumnar(num, &view)
					}
				} else {
					err = ref.notePage(num, p.Bytes())
				}
				if uerr := set.Unpin(p, false); err == nil {
					err = uerr
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			want := ref.marshal()
			for build, got := range map[string][]byte{"writer": marshalOf(hooked), "rebuild": marshalOf(rebuilt)} {
				if !bytes.Equal(got, want) {
					t.Errorf("%s set, %s, %s: %d bytes differ from the per-record fold's %d", layout, ref.s.kind.name, build, len(got), len(want))
				}
			}
		}
	}

	// Pages noted directly, in this order, into both folds.
	bp := newPool(t, 1<<20)
	set, err := bp.CreateSet(core.SetSpec{Name: "c", PageSize: 512, Layout: core.LayoutColumnar, Columns: pageFoldWidths})
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	if err := WriteAll(set, [][]byte{pageFoldRec(1, 3), pageFoldRec(2, negZero), pageFoldRec(3, 0), pageFoldRec(1, -1)}); err != nil {
		t.Fatal(err)
	}
	p, err := set.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = set.Unpin(p, false) }()
	view, err := OpenColumnarPage(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int64][][]byte{
		0: {pageFoldRec(0, negZero)},
		1: {pageFoldRec(1, 0), pageFoldRec(2, negZero)},
		2: {pageFoldRec(3, negZero), pageFoldRec(4, 0), pageFoldRec(5, negZero)},
		4: {pageFoldRec(6, 1), pageFoldRec(7, 2), pageFoldRec(8, 3)[:9], pageFoldRec(9, 4)},
		5: {pageFoldRec(10, math.NaN())},
	}
	for k, x := range pageFoldKinds(t) {
		ref := newRecordFold(pageFoldKinds(t)[k])
		for _, num := range []int64{0, 1, 2, 4, 3, 3, 5} {
			page := rowPage(rows[num]...)
			if num == 3 {
				page = p.Bytes()
			}
			if err := x.base().NotePage(num, page); err != nil {
				t.Fatal(err)
			}
			if num == 3 {
				ref.noteColumnar(num, view)
			} else if err := ref.notePage(num, page); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := marshalOf(x), ref.marshal(); !bytes.Equal(got, want) {
			t.Errorf("direct notes, %s: %d bytes differ from the per-record fold's %d", ref.s.kind.name, len(got), len(want))
		}
		if pg := x.base().pages[4]; pg.valid || pg.rows != 2 {
			t.Errorf("%s: ragged page valid=%v with %d rows, want invalid after 2", ref.s.kind.name, pg.valid, pg.rows)
		}
	}
}

// FuzzSideIndexRowPage holds the row-page fold to the per-record reference:
// on arbitrary bytes standing in for a row page, NotePage must fail
// exactly when the reference's record walk does, and otherwise leave both
// kinds' side objects — page table, validity, summaries, postings — byte for
// byte as the reference does.
func FuzzSideIndexRowPage(f *testing.F) {
	f.Add(uint32(0), false, rowPage(pageFoldRec(1, 2), pageFoldRec(2, math.Copysign(0, -1)), pageFoldRec(3, 0)))
	f.Add(uint32(9), false, rowPage(pageFoldRec(1, 2), pageFoldRec(2, 1)[:5], pageFoldRec(3, 0)))
	f.Add(uint32(1), true, rowPage(pageFoldRec(4, math.NaN())))
	f.Add(uint32(2), false, raggedRowPageSeed())
	f.Add(uint32(3), false, rowPage())
	f.Fuzz(func(t *testing.T, num uint32, past32 bool, page []byte) {
		if len(page) < pageHeaderSize || IsColumnarPage(page) {
			return
		}
		pageNum := int64(num)
		if past32 {
			pageNum += 1 << 32
		}
		for k, x := range pageFoldKinds(t) {
			ref := newRecordFold(pageFoldKinds(t)[k])
			err, werr := x.base().NotePage(pageNum, page), ref.notePage(pageNum, page)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%s: NotePage error %v, the record walk's %v", ref.s.kind.name, err, werr)
			}
			if err != nil {
				return
			}
			if got, want := marshalOf(x), ref.marshal(); !bytes.Equal(got, want) {
				t.Fatalf("%s: page fold marshals %x, the per-record fold %x", ref.s.kind.name, got, want)
			}
		}
	})
}
