package services

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"pangea/internal/core"
)

// writerRec is record i of the golden inputs: 1 to 97 bytes, so pages end on
// records of every length, some with room for the terminator and some not.
func writerRec(i int) []byte {
	r := make([]byte, 1+i*37%97)
	for k := range r {
		r[k] = byte(i*31 + k)
	}
	return r
}

// hashPages hashes every page of set, in page order, pinned from the pool.
func hashPages(t *testing.T, set *core.LocalitySet) string {
	t.Helper()
	h := sha256.New()
	for num := int64(0); num < set.NumPages(); num++ {
		p, err := set.Pin(num)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "page %d:", num)
		h.Write(p.Bytes())
		if err := set.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDecodes walks every page of set, in page order, and checks that the
// records read back are exactly want.
func checkDecodes(t *testing.T, name string, set *core.LocalitySet, want [][]byte) {
	t.Helper()
	var got [][]byte
	for num := int64(0); num < set.NumPages(); num++ {
		p, err := set.Pin(num)
		if err != nil {
			t.Fatal(err)
		}
		err = WalkPage(p.Bytes(), func(rec []byte) error {
			got = append(got, bytes.Clone(rec))
			return nil
		})
		if uerr := set.Unpin(p, false); err == nil {
			err = uerr
		}
		if err != nil {
			t.Fatalf("%s: page %d: %v", name, num, err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: pages decode to %d records, %d were written", name, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d decodes to %x, written %x", name, i, got[i], want[i])
		}
	}
}

// goldenWriterPages writes fixed inputs through every writer, checks that
// the pages each leaves decode to exactly the records written, and hashes
// them: SeqWriter into a row set and into a columnar set, and one writer
// thread of a three-partition Shuffle, partition by partition. Nothing
// spills (the pool holds every page), so the bytes are the writer's.
func goldenWriterPages(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, columnar := range []bool{false, true} {
		layout := map[bool]string{false: "row", true: "columnar"}[columnar]
		bp := newPool(t, 1<<20)
		spec := core.SetSpec{Name: "g", PageSize: 1024}
		if columnar {
			spec.Layout, spec.Columns = core.LayoutColumnar, colWidths
		}
		set, err := bp.CreateSet(spec)
		if err != nil {
			t.Fatal(err)
		}
		w := NewSeqWriter(set)
		var written [][]byte
		for i := 0; i < 500; i++ {
			rec := writerRec(i)
			if columnar {
				rec = colRec(i * 7 % 500)
			}
			if err := w.Add(rec); err != nil {
				t.Fatal(err)
			}
			written = append(written, rec)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w.Count() != 500 {
			t.Fatalf("%s writer counted %d records, want 500", layout, w.Count())
		}
		checkDecodes(t, "seq/"+layout, set, written)
		out["seq/"+layout] = hashPages(t, set)
	}

	bp := newPool(t, 1<<20)
	sh, err := NewShuffle(bp, "g", 3, 1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	bufs := sh.Writer()
	written := make([][][]byte, 3)
	for i := 0; i < 600; i++ {
		if err := bufs[i*7%3].Add(writerRec(i)); err != nil {
			t.Fatal(err)
		}
		written[i*7%3] = append(written[i*7%3], writerRec(i))
	}
	if err := CloseWriters(bufs); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < sh.Partitions(); p++ {
		name := fmt.Sprintf("shuffle/%d", p)
		checkDecodes(t, name, sh.Sink(p).Set(), written[p])
		out[name] = hashPages(t, sh.Sink(p).Set())
	}
	return out
}

// TestWriterPageGoldenBytes pins the bytes every writer puts on its pages:
// a change to the append loop that moves a byte — a header, a terminator, a
// record's place, a columnar segment — changes a hash here.
func TestWriterPageGoldenBytes(t *testing.T) {
	want := map[string]string{
		"seq/row":      "59368addfacf97b3b8297c5dd49fbaa848248c9e02ba03c77beeb0dfdaef4b38",
		"seq/columnar": "833c882cb206c495459573da06cba3c714c8e86c59a4422f17bb076132ff621e",
		"shuffle/0":    "8fa31bd5a557e9d7c06d47e0b498959323b53d5e5b54f2942320d79f058bb21f",
		"shuffle/1":    "e6d1275b9fa3dc61092ae46c62cf625679c6bcc9024122dfac3f47bda73c358a",
		"shuffle/2":    "372a98766a1f70a9387595953dd9161220e8bb795f5ffea90666c3991392919d",
	}
	got := goldenWriterPages(t)
	if len(got) != len(want) {
		t.Errorf("hashed %d page sets, golden table pins %d", len(got), len(want))
	}
	for name, h := range got {
		if h != want[name] {
			t.Errorf("%s: pages hash to %s, golden %s", name, h, want[name])
		}
	}
}

// TestSealedLastPageHoldsItsRecords: a SeqWriter's Close compacts its last
// page to the records on it and shrinks the page to them, rounded up to 16
// bytes, in both layouts; every page still decodes to exactly the records
// written — the last one also padded with zeros to the set's page size, as
// it reloads after a spill — and side indexes riding the writer fold the
// compacted page exactly.
func TestSealedLastPageHoldsItsRecords(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		for _, indexed := range []bool{false, true} {
			name := map[bool]string{false: "row", true: "columnar"}[columnar] +
				map[bool]string{false: "", true: "/indexed"}[indexed]
			t.Run(name, func(t *testing.T) {
				bp := newPool(t, 1<<20)
				spec := core.SetSpec{Name: "s", PageSize: 1024}
				if columnar {
					spec.Layout, spec.Columns = core.LayoutColumnar, colWidths
				}
				set, err := bp.CreateSet(spec)
				if err != nil {
					t.Fatal(err)
				}
				w := NewSeqWriter(set)
				var z *ZoneMap
				var m *Microindex
				if indexed {
					if z, err = AttachZoneMap(w, ZoneMapSpec{Schema: zmSchema(), BloomCols: []int{1}}); err != nil {
						t.Fatal(err)
					}
					if m, err = AttachMicroindex(w, miSpec()); err != nil {
						t.Fatal(err)
					}
				}
				var written [][]byte
				for i := 0; i < 150; i++ {
					rec := colRec(i * 13 % 150)
					if err := w.Add(rec); err != nil {
						t.Fatal(err)
					}
					written = append(written, rec)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				checkDecodes(t, name, set, written)

				last := set.NumPages() - 1
				p, err := set.Pin(last)
				if err != nil {
					t.Fatal(err)
				}
				defer set.Unpin(p, false)
				var onLast [][]byte
				_ = WalkPage(p.Bytes(), func(rec []byte) error { onLast = append(onLast, bytes.Clone(rec)); return nil })
				want := int64(pageHeaderSize + len(onLast)*(recHeaderSize+14))
				if columnar {
					want = int64(columnarHeaderSize(len(colWidths)) + len(onLast)*14)
				}
				if want = (want + 15) &^ 15; p.Size() != want || want >= spec.PageSize {
					t.Fatalf("last page of %d records has Size %d, want %d (page size %d)", len(onLast), p.Size(), want, spec.PageSize)
				}
				padded := make([]byte, spec.PageSize)
				copy(padded, p.Bytes())
				var reloaded [][]byte
				if err := WalkPage(padded, func(rec []byte) error { reloaded = append(reloaded, bytes.Clone(rec)); return nil }); err != nil {
					t.Fatal(err)
				}
				if len(reloaded) != len(onLast) {
					t.Fatalf("last page padded to its page size decodes to %d records, want %d", len(reloaded), len(onLast))
				}
				for i := range onLast {
					if !bytes.Equal(reloaded[i], onLast[i]) {
						t.Fatalf("padded last page's record %d is %x, want %x", i, reloaded[i], onLast[i])
					}
				}
				if indexed {
					if np := set.NumPages(); !z.Covers(np) || !m.Covers(np) {
						t.Fatalf("side indexes do not cover the set's %d pages", np)
					}
					zmCheckRanges(t, set, z)
					miCheckExact(t, set, m)
				}
			})
		}
	}
}

// TestSpilledSealedPageReadsInPlace: a sealed row page shrunk to its records
// that spills and is pinned again reloads into a full frame and reads as the
// page did before it was shrunk: one region spanning the frame, its records
// framed as they lie, so PageFrames returns a slice of the page instead of
// copying it.
func TestSpilledSealedPageReadsInPlace(t *testing.T) {
	const pageSize = 4 << 10
	bp := newPool(t, 4*pageSize)
	set := mkSet(t, bp, "sealed", pageSize)
	w := NewSeqWriter(set)
	var written [][]byte
	for i := 0; i < 5; i++ {
		written = append(written, writerRec(i))
		if err := w.Add(written[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if set.NumPages() != 1 || set.ResidentBytes() >= pageSize {
		t.Fatalf("sealed set has %d pages in %d resident bytes, want one shrunk page", set.NumPages(), set.ResidentBytes())
	}
	// Fill the pool from another set until the sealed page has spilled.
	filler := NewSeqWriter(mkSet(t, bp, "filler", pageSize))
	for i := 0; set.ResidentPages() > 0; i++ {
		if i > 64*pageSize/100 {
			t.Fatal("the sealed page never left the pool")
		}
		if err := filler.Add(make([]byte, 96)); err != nil {
			t.Fatal(err)
		}
	}
	if err := filler.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := set.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Unpin(p, false)
	page := p.Bytes()
	if len(page) != pageSize {
		t.Fatalf("reloaded page has %d bytes, want a full %d-byte frame", len(page), pageSize)
	}
	var buf []byte
	frames, err := PageFrames(page, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf != nil || len(frames) == 0 || &frames[0] != &page[pageHeaderSize] {
		t.Fatal("PageFrames copied the reloaded page's records instead of slicing the page")
	}
	var got [][]byte
	if err := WalkFrames(frames, func(rec []byte) error { got = append(got, bytes.Clone(rec)); return nil }); err != nil {
		t.Fatal(err)
	}
	offs, _, err := RecordOffsets(page, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(written) || len(offs) != len(written) {
		t.Fatalf("reloaded page frames %d records and offsets %d, %d were written", len(got), len(offs), len(written))
	}
	for i, rec := range written {
		if !bytes.Equal(got[i], rec) || !bytes.Equal(page[offs[i]:int(offs[i])+RecordLen(page, offs[i])], rec) {
			t.Fatalf("reloaded page's record %d differs from the one written", i)
		}
	}
}
