package services

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"pangea/internal/core"
)

// colSchema is the test schema: u32 key, u16 tag, f64-sized payload.
var colWidths = []int{4, 2, 8}

func colRec(i int) []byte {
	r := make([]byte, 14)
	binary.LittleEndian.PutUint32(r[0:4], uint32(i))
	binary.LittleEndian.PutUint16(r[4:6], uint16(i%251))
	binary.LittleEndian.PutUint64(r[6:14], uint64(i)*3)
	return r
}

func mkColSet(t *testing.T, bp *core.BufferPool, name string, pageSize int64) *core.LocalitySet {
	t.Helper()
	s, err := bp.CreateSet(core.SetSpec{
		Name: name, PageSize: pageSize,
		Layout: core.LayoutColumnar, Columns: colWidths,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestColumnarRoundTrip: records written through the layout-dispatching
// SeqWriter come back identically via the column-slice decode and via the
// row-compatible WalkPage, and the column vectors hold the transposed
// values.
func TestColumnarRoundTrip(t *testing.T) {
	bp := newPool(t, 1<<20)
	s := mkColSet(t, bp, "c", 512) // small pages force several
	const n = 300
	w := NewSeqWriter(s)
	for i := 0; i < n; i++ {
		if err := w.Add(colRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != n {
		t.Fatalf("writer count %d, want %d", w.Count(), n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if s.NumPages() < 2 {
		t.Fatalf("%d pages, want several", s.NumPages())
	}

	// Column-slice decode, page by page.
	var fromCols [][]byte
	for _, num := range s.PageNums() {
		p, err := s.Pin(num)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := OpenColumnarPage(p.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if cp.NumCols() != len(colWidths) || cp.RowSize() != 14 {
			t.Fatalf("page shape %d cols / %d-byte rows", cp.NumCols(), cp.RowSize())
		}
		keys, tags, vals := cp.Col(0), cp.Col(1), cp.Col(2)
		for i := 0; i < cp.NumRows(); i++ {
			rec := make([]byte, 0, 14)
			rec = append(rec, keys[i*4:i*4+4]...)
			rec = append(rec, tags[i*2:i*2+2]...)
			rec = append(rec, vals[i*8:i*8+8]...)
			fromCols = append(fromCols, rec)
		}
		if err := s.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}

	// Row-compatible decode through ScanSet/WalkPage.
	var fromRows [][]byte
	if err := ScanSet(s, 1, func(_ int, rec []byte) error {
		fromRows = append(fromRows, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(fromCols) != n || len(fromRows) != n {
		t.Fatalf("decoded %d columnar / %d row records, want %d", len(fromCols), len(fromRows), n)
	}
	seen := make(map[uint32]bool)
	for i := range fromRows {
		if !bytes.Equal(fromRows[i], fromCols[i]) {
			t.Fatalf("record %d: row decode %x != columnar decode %x", i, fromRows[i], fromCols[i])
		}
		seen[binary.LittleEndian.Uint32(fromRows[i][0:4])] = true
	}
	for i := 0; i < n; i++ {
		if !seen[uint32(i)] {
			t.Fatalf("record %d missing after round-trip", i)
		}
	}
}

// TestColumnarWriterRejectsWrongSize: only exact schema-width records fit.
func TestColumnarWriterRejectsWrongSize(t *testing.T) {
	bp := newPool(t, 1<<20)
	s := mkColSet(t, bp, "c", 4096)
	w := NewSeqWriter(s)
	defer func() { _ = w.Close() }()
	if err := w.Add(make([]byte, 13)); err == nil {
		t.Error("13-byte record accepted into a 14-byte-row schema")
	}
	if err := w.Add(colRec(1)); err != nil {
		t.Fatal(err)
	}
}

// TestMixedLayoutsInOnePool: a row set and a columnar set coexist in one
// pool; each scan sees exactly its own records with its own framing.
func TestMixedLayoutsInOnePool(t *testing.T) {
	bp := newPool(t, 1<<20)
	rowSet := mkSet(t, bp, "rows", 2048)
	colSet := mkColSet(t, bp, "cols", 2048)
	const n = 200
	var rowRecs, colRecs [][]byte
	for i := 0; i < n; i++ {
		rowRecs = append(rowRecs, []byte(fmt.Sprintf("row-%04d", i)))
		colRecs = append(colRecs, colRec(i))
	}
	if err := WriteAll(rowSet, rowRecs); err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(colSet, colRecs); err != nil {
		t.Fatal(err)
	}
	count := func(s *core.LocalitySet, want []byte) int {
		var got [2]int // one slot per scan thread
		if err := ScanSet(s, 2, func(thread int, rec []byte) error {
			if len(rec) == len(want) {
				got[thread]++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got[0] + got[1]
	}
	if got := count(rowSet, rowRecs[0]); got != n {
		t.Errorf("row set scan saw %d records, want %d", got, n)
	}
	if got := count(colSet, colRecs[0]); got != n {
		t.Errorf("columnar set scan saw %d records, want %d", got, n)
	}
	for _, num := range colSet.PageNums() {
		p, err := colSet.Pin(num)
		if err != nil {
			t.Fatal(err)
		}
		if !IsColumnarPage(p.Bytes()) {
			t.Errorf("columnar set page %d not columnar", num)
		}
		_ = colSet.Unpin(p, false)
	}
	for _, num := range rowSet.PageNums() {
		p, err := rowSet.Pin(num)
		if err != nil {
			t.Fatal(err)
		}
		if IsColumnarPage(p.Bytes()) {
			t.Errorf("row set page %d claims to be columnar", num)
		}
		_ = rowSet.Unpin(p, false)
	}
}

// TestColumnarSpillReload: columnar pages written through a pool too small
// to hold them are spilled by the evictor and read back intact — the pages
// are self-describing, so reload needs no side state.
func TestColumnarSpillReload(t *testing.T) {
	bp := newPool(t, 256<<10) // 64 pages of 4 KiB; data is ~3x that
	s := mkColSet(t, bp, "c", 4096)
	const n = 50000 // ~700 KiB of 14-byte rows
	w := NewSeqWriter(s)
	for i := 0; i < n; i++ {
		if err := w.Add(colRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if bp.Stats().Spills.Load() == 0 {
		t.Fatal("no spills: the pool was not under pressure, test proves nothing")
	}
	base := s.Stats().LoadReads.Load() // demand misses and read-ahead alike: a fast window leaves no miss
	var sums [2]uint64                 // one slot per scan thread
	var gots [2]int
	if err := ScanSet(s, 2, func(thread int, rec []byte) error {
		sums[thread] += uint64(binary.LittleEndian.Uint32(rec[0:4]))
		gots[thread]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sum, got := sums[0]+sums[1], gots[0]+gots[1]
	if got != n {
		t.Fatalf("reloaded scan saw %d records, want %d", got, n)
	}
	var want uint64
	for i := 0; i < n; i++ {
		want += uint64(i)
	}
	if sum != want {
		t.Fatalf("key sum %d after spill/reload, want %d", sum, want)
	}
	if s.Stats().LoadReads.Load() == base {
		t.Error("scan never read from disk: spilled pages were not reloaded")
	}
}

// TestColumnarIndexFoldsEverySealedPage: a side index riding a columnar
// writer folds every page it seals, fully described: once Close returns the
// zone map covers the set, its pages hold every row, and each page's column
// ranges are the page's own.
func TestColumnarIndexFoldsEverySealedPage(t *testing.T) {
	bp := newPool(t, 1<<20)
	s := mkColSet(t, bp, "c", 512)
	w := NewSeqWriter(s)
	z, err := AttachZoneMap(w, ZoneMapSpec{Schema: zmSchema()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 123
	for i := 0; i < n; i++ {
		if err := w.Add(colRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if np := s.NumPages(); np < 2 || !z.Covers(np) || int64(z.NumPages()) != np {
		t.Fatalf("zone map holds %d pages of the set's %d, want all of several", z.NumPages(), np)
	}
	rows := int64(0)
	for _, p := range z.pages {
		rows += p.rows
	}
	if rows != n {
		t.Errorf("zone map folded %d rows, want %d", rows, n)
	}
	zmCheckRanges(t, s, z)
}

// TestColumnarEveryWidthRoundTrips: the writer's store and the walk's
// transposition switch on a column's width, so a schema with every branch —
// 1, 2, 4 and 8 bytes and two widths that are none of them — must give back
// each record's bytes, in order, through WalkPage and PageFrames.
func TestColumnarEveryWidthRoundTrips(t *testing.T) {
	widths := []int{1, 2, 3, 4, 8, 5}
	bp := newPool(t, 1<<20)
	s, err := bp.CreateSet(core.SetSpec{Name: "w", PageSize: 1024, Layout: core.LayoutColumnar, Columns: widths})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	w := NewSeqWriter(s)
	for i := 0; i < 200; i++ {
		rec := make([]byte, 23)
		for j := range rec {
			rec[j] = byte(i*31 + j*7)
		}
		if err := w.Add(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var walked, framed []byte
	var buf []byte
	for _, num := range s.PageNums() {
		p, err := s.Pin(num)
		if err != nil {
			t.Fatal(err)
		}
		if err := WalkPage(p.Bytes(), func(rec []byte) error { walked = AppendFrame(walked, rec); return nil }); err != nil {
			t.Fatal(err)
		}
		run, err := PageFrames(p.Bytes(), &buf)
		if err != nil {
			t.Fatal(err)
		}
		framed = append(framed, run...)
		if err := s.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	var all []byte
	for _, rec := range want {
		all = AppendFrame(all, rec)
	}
	if !bytes.Equal(walked, all) || !bytes.Equal(framed, all) {
		t.Fatalf("records did not round-trip: walked %d bytes, framed %d, want %d", len(walked), len(framed), len(all))
	}
}
