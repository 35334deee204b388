package services

import (
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

// goldenWriterPages writes fixed inputs through every writer and hashes the
// pages each leaves: SeqWriter into a row set and into a columnar set, and
// one writer thread of a three-partition Shuffle, partition by partition.
// Nothing spills (the pool holds every page), so the bytes are the writer's.
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
		for i := 0; i < 500; i++ {
			rec := writerRec(i)
			if columnar {
				rec = colRec(i * 7 % 500)
			}
			if err := w.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w.Count() != 500 {
			t.Fatalf("%s writer counted %d records, want 500", layout, w.Count())
		}
		out["seq/"+layout] = hashPages(t, set)
	}

	bp := newPool(t, 1<<20)
	sh, err := NewShuffle(bp, "g", 3, 1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	bufs := sh.Writer()
	for i := 0; i < 600; i++ {
		if err := bufs[i*7%3].Add(writerRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := CloseWriters(bufs); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < sh.Partitions(); p++ {
		out[fmt.Sprintf("shuffle/%d", p)] = hashPages(t, sh.Sink(p).Set())
	}
	return out
}

// TestWriterPageGoldenBytes pins the bytes every writer puts on its pages:
// a change to the append loop that moves a byte — a header, a terminator, a
// record's place, a columnar segment — changes a hash here.
func TestWriterPageGoldenBytes(t *testing.T) {
	want := map[string]string{
		"seq/row":      "1ce1abe8f6781cb901ce6a8793ae5ac2da90de62ca449b19a57f00143e2331b0",
		"seq/columnar": "96593423389559e016b8003f9c5822e51691b3acf9c30ad245ce5faa4920fccf",
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
