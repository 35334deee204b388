package services

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// fuzzZoneSpec is the fixed schema the zone-map fuzzer decodes against:
// two columns (u64 key, u32 value) with a bloom filter on the key.
func fuzzZoneSpec() ZoneMapSpec {
	return ZoneMapSpec{
		Schema:    MakeSchema([]string{"k", "v"}, []int{8, 4}),
		BloomCols: []int{0},
	}
}

// validColumnarSeed builds a well-formed two-column page with three rows.
func validColumnarSeed() []byte {
	widths := []int{4, 8}
	buf := make([]byte, 256)
	capacity := (len(buf) - columnarHeaderSize(len(widths))) / 12
	initColumnarPage(buf, widths, capacity)
	binary.LittleEndian.PutUint32(buf[8:12], 3) // nrows
	return buf
}

// overflowColumnarSeed reproduces the segment-size overflow: one column of
// width 0xFFFFFFFF in a page claiming 0xFFFFFFFF rows of capacity, whose
// capacity*width product wraps a 64-bit int to a negative segment end.
func overflowColumnarSeed() []byte {
	buf := make([]byte, 64)
	le := binary.LittleEndian
	le.PutUint32(buf[0:4], columnarMagic)
	le.PutUint32(buf[4:8], 1)         // ncols
	le.PutUint32(buf[8:12], 3)        // nrows
	le.PutUint32(buf[12:16], 1<<32-1) // capacity
	le.PutUint32(buf[16:20], 1<<32-1) // width
	return buf
}

// TestResetRejectsOverflowingSegments is the regression test for the
// capacity*width int overflow: before the 64-bit bound, this page passed
// validation with a wrapped segment end and Col(0) read far past the
// buffer.
func TestResetRejectsOverflowingSegments(t *testing.T) {
	var p ColumnarPage
	if err := p.Reset(overflowColumnarSeed()); err == nil {
		t.Fatal("Reset accepted a page whose segment sizes overflow int64")
	}
}

// FuzzColumnarPageReset throws arbitrary bytes at the columnar page
// decoder: it must either reject the buffer or yield a view whose every
// accessor stays in bounds.
func FuzzColumnarPageReset(f *testing.F) {
	f.Add(validColumnarSeed())
	f.Add(overflowColumnarSeed())
	f.Add([]byte{})
	f.Add([]byte{0xC1, 0x07, 0x7C, 0xC0}) // magic only, header truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		var p ColumnarPage
		if err := p.Reset(data); err != nil {
			return
		}
		// The view parsed: exercise every zero-copy accessor and the
		// record walk. Any panic here is a decoder validation hole.
		for c := 0; c < p.NumCols(); c++ {
			seg := p.Col(c)
			if len(seg) != p.NumRows()*p.Width(c) {
				t.Fatalf("column %d: %d bytes for %d rows of width %d",
					c, len(seg), p.NumRows(), p.Width(c))
			}
		}
		i := 0
		err := WalkPage(data, func(rec []byte) error {
			if len(rec) != p.RowSize() {
				t.Fatalf("row %d materialized to %d bytes, RowSize is %d", i, len(rec), p.RowSize())
			}
			off := 0
			for c := 0; c < p.NumCols(); c++ {
				w := p.Width(c)
				if !bytes.Equal(rec[off:off+w], p.Col(c)[i*w:(i+1)*w]) {
					t.Fatalf("row %d column %d: walked %x, column holds %x", i, c, rec[off:off+w], p.Col(c)[i*w:(i+1)*w])
				}
				off += w
			}
			i++
			return nil
		})
		if err != nil || i != p.NumRows() {
			t.Fatalf("WalkPage gave %d of %d rows of a page Reset accepted: %v", i, p.NumRows(), err)
		}
	})
}

// raggedRowPageSeed frames records of mixed lengths — runs of equal lengths,
// which RecordOffsets steps over by stride, broken by other lengths — into a
// three-region page.
func raggedRowPageSeed() []byte {
	buf := make([]byte, 8+3*200)
	initPage(buf, 200)
	for region, lens := range [][]int{{12, 12, 12, 5, 12, 12}, {1, 1, 1, 1, 40}, {}} {
		off := pageHeaderSize + region*200
		for _, n := range lens {
			off, _ = appendRecord(buf, off, pageHeaderSize+(region+1)*200, make([]byte, n))
		}
	}
	return buf
}

// FuzzRecordOffsets holds the batch engine's framing walk to WalkPage's: on
// arbitrary bytes standing in for a row page off a drive, RecordOffsets must
// fail exactly when WalkPage does, and otherwise name exactly the records
// WalkPage visits, in order, with the shortest one's length.
func FuzzRecordOffsets(f *testing.F) {
	f.Add(raggedRowPageSeed())
	overrun := raggedRowPageSeed()
	binary.LittleEndian.PutUint32(overrun[pageHeaderSize+16:], 4000) // second record overruns its region
	f.Add(overrun)
	f.Add([]byte{8, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 1, 2, 3, 4})
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < pageHeaderSize || IsColumnarPage(data) {
			return
		}
		var want [][]byte
		werr := WalkPage(data, func(rec []byte) error {
			want = append(want, rec)
			return nil
		})
		offs, minLen, err := RecordOffsets(data, nil)
		if (err != nil) != (werr != nil) {
			t.Fatalf("RecordOffsets error %v, WalkPage error %v", err, werr)
		}
		if err != nil {
			return
		}
		if len(offs) != len(want) {
			t.Fatalf("RecordOffsets found %d records, WalkPage %d", len(offs), len(want))
		}
		shortest := 0
		for i, off := range offs {
			n := RecordLen(data, off)
			if n != len(want[i]) || (n > 0 && &data[off] != &want[i][0]) {
				t.Fatalf("record %d: offset %d length %d, WalkPage saw length %d elsewhere", i, off, n, len(want[i]))
			}
			if i == 0 || n < shortest {
				shortest = n
			}
		}
		if minLen != shortest {
			t.Fatalf("minLen %d, shortest record is %d", minLen, shortest)
		}
	})
}

// FuzzWalkFrames holds the wire's record decoder to its contract on arbitrary
// bytes standing in for a run off a socket: it never panics; it either refuses
// the run before its callback has seen a record, or yields records that lie
// inside the run, in order, and whose re-framing is the run byte for byte.
// Seeds are checked in under testdata/fuzz/FuzzWalkFrames.
func FuzzWalkFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, run []byte) {
		var again []byte
		calls, next := 0, 0
		err := WalkFrames(run, func(rec []byte) error {
			calls++
			// The record must be run[next+4 : next+4+len(rec)]: inside the
			// run, after its own header, right behind the record before it.
			if len(rec) == 0 || next+recHeaderSize+len(rec) > len(run) || &rec[0] != &run[next+recHeaderSize] {
				t.Fatalf("record %d (%d bytes) is not the frame at offset %d of the %d-byte run", calls, len(rec), next, len(run))
			}
			next += recHeaderSize + len(rec)
			again = AppendFrame(again, rec)
			return nil
		})
		if err != nil {
			if calls != 0 {
				t.Fatalf("a run refused with %q had %d records shown first", err, calls)
			}
			return
		}
		if !bytes.Equal(again, run) {
			t.Fatalf("the %d records of an accepted %d-byte run re-frame to %d other bytes", calls, len(run), len(again))
		}
	})
}

// TestPageFrames: a page's records as one run — a slice of the page itself
// for a sequential row page, a framed copy in the caller's buffer for a page
// of several regions or a columnar one — are the records WalkPage visits.
func TestPageFrames(t *testing.T) {
	seq := make([]byte, 256)
	initPage(seq, len(seq)-pageHeaderSize)
	for off, i := pageHeaderSize, 1; i < 9; i++ {
		off, _ = appendRecord(seq, off, len(seq), bytes.Repeat([]byte{byte(i)}, i))
	}
	full := make([]byte, 8+20) // its last record ends 2 bytes short of the page: no terminator fits
	initPage(full, 20)
	appendRecord(full, pageHeaderSize, len(full), make([]byte, 14))
	col := validColumnarSeed()
	var buf []byte
	for name, page := range map[string][]byte{"sequential": seq, "brim-full": full, "three regions": raggedRowPageSeed(), "columnar": col} {
		var want []byte
		if err := WalkPage(page, func(rec []byte) error { want = AppendFrame(want, rec); return nil }); err != nil {
			t.Fatal(err)
		}
		run, err := PageFrames(page, &buf)
		if err != nil || !bytes.Equal(run, want) || len(want) == 0 {
			t.Errorf("%s page: run of %d bytes (err %v), want the %d bytes of its records framed", name, len(run), err, len(want))
		}
		if inPage := len(run) > 0 && &run[0] == &page[pageHeaderSize]; inPage != (name == "sequential" || name == "brim-full") {
			t.Errorf("%s page: run is a slice of the page = %v", name, inPage)
		}
	}
	overrun := bytes.Clone(seq)
	binary.LittleEndian.PutUint32(overrun[pageHeaderSize+5:], 4000) // the second record overruns the page
	if _, err := PageFrames(overrun, &buf); err == nil {
		t.Error("a sequential page whose record overruns it was framed without an error")
	}
}

// validZoneMapSeed marshals a real two-page map under fuzzZoneSpec.
func validZoneMapSeed(t testing.TB) []byte {
	z, err := NewZoneMap(fuzzZoneSpec())
	if err != nil {
		t.Fatal(err)
	}
	for page := int64(0); page < 2; page++ {
		noteRows(t, z, page, fuzzSeedRecs(page)...)
	}
	return z.Marshal()
}

// hugePageCountSeed reproduces the npages overflow: a shape-correct header
// claiming 2^61 pages, whose need computation wrapped to a small number and
// sent the decode loop off the end of the buffer.
func hugePageCountSeed(t testing.TB) []byte {
	data := validZoneMapSeed(t)
	binary.LittleEndian.PutUint64(data[32:40], 1<<61)
	return data
}

// decodeZoneMap and decodeMicroindex decode a persisted side object the way
// EnsureZoneMap and EnsureMicroindex read one back: a fresh index for the
// spec, filled by unmarshal.
func decodeZoneMap(data []byte, spec ZoneMapSpec) (*ZoneMap, error) {
	z, err := NewZoneMap(spec)
	if err == nil {
		err = z.unmarshal(data)
	}
	if err != nil {
		return nil, err
	}
	return z, nil
}

func decodeMicroindex(data []byte, spec MicroindexSpec) (*Microindex, error) {
	m, err := NewMicroindex(spec)
	if err == nil {
		err = m.unmarshal(data)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// TestLoadZoneMapRejectsCorruptPageTable pins the shared decoder's page-table
// checks on the zone-map format: the npages size-computation overflow (its
// regression test), and the bounds the microindex decoder always had that
// zone maps gained with the shared codec — a page number repeated or
// negative, and bytes left over after the last page record.
func TestLoadZoneMapRejectsCorruptPageTable(t *testing.T) {
	// validZoneMapSeed: 80 bytes of header and schema, then two 120-byte
	// page records whose first word is the page number.
	const page1 = 80 + 120
	patch := func(v uint64) []byte {
		data := validZoneMapSeed(t)
		binary.LittleEndian.PutUint64(data[page1:], v)
		return data
	}
	for name, data := range map[string][]byte{
		"claims 2^61 pages":                    hugePageCountSeed(t),
		"repeats page 0":                       patch(0),
		"has a negative page number":           patch(1 << 63),
		"has trailing bytes":                   append(validZoneMapSeed(t), 0, 0, 0, 0, 0, 0, 0, 0),
		"has a trailing unclaimed page record": append(validZoneMapSeed(t), make([]byte, 120)...),
	} {
		if _, err := decodeZoneMap(data, fuzzZoneSpec()); err == nil {
			t.Errorf("the zone-map decoder accepted a map that %s", name)
		}
	}
}

// TestZoneMapRoundTrip pins the happy path the fuzzer mutates from.
func TestZoneMapRoundTrip(t *testing.T) {
	z, err := decodeZoneMap(validZoneMapSeed(t), fuzzZoneSpec())
	if err != nil {
		t.Fatal(err)
	}
	if z.NumPages() != 2 {
		t.Fatalf("round-tripped map has %d pages, want 2", z.NumPages())
	}
	if lo, hi, ok := z.ColRangeU(1, 0); !ok || lo != 100 || hi != 103 {
		t.Fatalf("page 1 key range = [%d,%d] ok=%v, want [100,103]", lo, hi, ok)
	}
}

// fuzzMISpec is the fixed spec the microindex fuzzer decodes against: the
// zone-map fuzzer's two-column schema with postings on the key column.
func fuzzMISpec() MicroindexSpec {
	return MicroindexSpec{
		Schema: MakeSchema([]string{"k", "v"}, []int{8, 4}),
		Cols:   []int{0},
	}
}

// validMicroindexSeed marshals a real index under fuzzMISpec: two parsed
// pages plus one invalid page, so the fuzzer mutates coverage flags and
// posting lists from a shape that exercises both.
func validMicroindexSeed(t testing.TB) []byte {
	m, err := NewMicroindex(fuzzMISpec())
	if err != nil {
		t.Fatal(err)
	}
	for page := int64(0); page < 2; page++ {
		noteRows(t, m, page, fuzzSeedRecs(page)...)
	}
	noteRows(t, m, 2, make([]byte, 4)) // short record: page 2 covered but invalid
	return m.Marshal()
}

// fuzzSeedRecs returns page's four records under the fuzzers' two-column
// schema: key page*100+r, value r.
func fuzzSeedRecs(page int64) [][]byte {
	recs := make([][]byte, 4)
	for r := range recs {
		recs[r] = make([]byte, 12)
		binary.LittleEndian.PutUint64(recs[r][0:8], uint64(page*100+int64(r)))
		binary.LittleEndian.PutUint32(recs[r][8:12], uint32(r))
	}
	return recs
}

// hugeMicroindexCountSeed is the count-overflow shape the decoder must
// bound before any size arithmetic: a well-formed object whose npages
// field claims 2^61 pages.
func hugeMicroindexCountSeed(t testing.TB) []byte {
	data := validMicroindexSeed(t)
	binary.LittleEndian.PutUint64(data[32:40], 1<<61)
	return data
}

// TestLoadMicroindexRejectsHugePageCount pins the npages bound.
func TestLoadMicroindexRejectsHugePageCount(t *testing.T) {
	if _, err := decodeMicroindex(hugeMicroindexCountSeed(t), fuzzMISpec()); err == nil {
		t.Fatal("the microindex decoder accepted an index claiming 2^61 pages")
	}
}

// TestLoadMicroindexRejectsCorruptPairs pins the v2 body checks on
// validMicroindexSeed, whose body starts at byte 152 with its pair count and
// holds page 0's keys 0..3 at lanes 0..3, then page 1's keys 100..103: pairs
// that do not strictly ascend, a page the table does not cover, a lane at or
// past its page's row count (invalid page 2 has none), and a count larger
// than the bytes left.
func TestLoadMicroindexRejectsCorruptPairs(t *testing.T) {
	const count, pairs = 152, 160
	// patch overwrites one word at off, or two at off and off+8.
	patch := func(off int, words ...uint64) []byte {
		data := validMicroindexSeed(t)
		for i, v := range words {
			binary.LittleEndian.PutUint64(data[off+8*i:], v)
		}
		return data
	}
	for name, data := range map[string][]byte{
		"pairs out of order":        patch(pairs, 5),
		"a repeated pair":           patch(pairs+16, 0, 0),
		"an uncovered page":         patch(pairs+7*16+8, 9<<32),
		"a lane past its page":      patch(pairs+8, 4),
		"a lane of an invalid page": patch(pairs+7*16+8, 2<<32),
		"more pairs than bytes":     patch(count, 1<<60),
	} {
		if _, err := decodeMicroindex(data, fuzzMISpec()); err == nil {
			t.Errorf("the microindex decoder accepted an index with %s", name)
		}
	}
}

// TestMicroindexSeedRoundTrip pins the happy path the fuzzer mutates from.
func TestMicroindexSeedRoundTrip(t *testing.T) {
	m, err := decodeMicroindex(validMicroindexSeed(t), fuzzMISpec())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPages() != 3 {
		t.Fatalf("round-tripped index has %d pages, want 3", m.NumPages())
	}
	if !m.Covers(3) || m.Covers(4) {
		t.Fatalf("coverage: Covers(3)=%v Covers(4)=%v, want true/false", m.Covers(3), m.Covers(4))
	}
	// Key 101 is page 1's lane 1; invalid page 2 joins every lookup whole.
	if locs, ok := m.Lookup(0, 101); !ok || !slices.Equal(locs, []uint64{1<<32 | 1, 2<<32 | LaneAll}) {
		t.Fatalf("Lookup(0, 101) = %x ok=%v, want [1:1 2:all] true", locs, ok)
	}
}

// FuzzLoadMicroindex throws arbitrary bytes at the microindex side-object
// decoder: it must either reject the buffer or return an index whose
// lookups stay sorted and in bounds — every page they name covered, every
// lane below its page's row count, and only invalid pages whole — the
// authoritative-semantics contract the query layer seeds batch selections
// from. Seeds are checked in under testdata/fuzz/FuzzLoadMicroindex.
func FuzzLoadMicroindex(f *testing.F) {
	f.Add(validMicroindexSeed(f))
	f.Add(hugeMicroindexCountSeed(f))
	f.Add([]byte{})
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMicroindex(data, fuzzMISpec())
		if err != nil {
			return
		}
		for n := int64(-1); n < 5; n++ {
			m.Covers(n)
		}
		for _, v := range []uint64{0, 1, 101, ^uint64(0)} {
			for c := -1; c < 3; c++ {
				locs, ok := m.Lookup(c, v)
				if !ok {
					if locs != nil {
						t.Fatalf("unindexed column %d answered %x", c, locs)
					}
					continue
				}
				for i, loc := range locs {
					if i > 0 && loc <= locs[i-1] {
						t.Fatalf("Lookup(%d, %d) not strictly ascending: %x", c, v, locs)
					}
					p, lane := m.pages[int64(loc>>32)], int64(uint32(loc))
					switch {
					case p == nil:
						t.Fatalf("Lookup(%d, %d) names uncovered page %d", c, v, loc>>32)
					case lane == LaneAll && p.valid:
						t.Fatalf("Lookup(%d, %d) scans valid page %d whole", c, v, loc>>32)
					case lane != LaneAll && (!p.valid || lane >= p.rows):
						t.Fatalf("Lookup(%d, %d) names lane %d of page %d (%d rows, valid %v)", c, v, lane, loc>>32, p.rows, p.valid)
					}
				}
			}
		}
		if _, lerr := decodeMicroindex(m.Marshal(), fuzzMISpec()); lerr != nil {
			t.Fatalf("re-marshal of an accepted index was rejected: %v", lerr)
		}
	})
}

// FuzzLoadZoneMap throws arbitrary bytes at the zone-map side-object
// decoder: it must either reject the buffer or return a usable map whose
// query methods stay in bounds.
func FuzzLoadZoneMap(f *testing.F) {
	f.Add(validZoneMapSeed(f))
	f.Add(hugePageCountSeed(f))
	f.Add([]byte{})
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		z, err := decodeZoneMap(data, fuzzZoneSpec())
		if err != nil {
			return
		}
		for n := int64(-1); n < 4; n++ {
			z.Covers(n)
			for c := 0; c < 2; c++ {
				z.ColRangeU(n, c)
				z.ColRangeF64(n, c)
				z.MayContain(n, c, 42)
			}
		}
		if len(z.Marshal()) == 0 && z.NumPages() > 0 {
			t.Fatal("non-empty map marshaled to zero bytes")
		}
	})
}
