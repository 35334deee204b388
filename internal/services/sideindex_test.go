package services

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"pangea/internal/core"
)

// goldenSideObjects builds both side-index kinds over the same inputs and
// returns their marshaled side objects by name: a 400-record set written
// through the attached writer hooks in each layout (multi-column min/max, a
// bloom and postings on the tag column), plus directly folded edge shapes —
// unsorted designated columns, a float column holding a NaN, a page
// poisoned by a short record, and an out-of-order page restated later.
func goldenSideObjects(t *testing.T) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, columnar := range []bool{false, true} {
		layout := map[bool]string{false: "row", true: "columnar"}[columnar]
		bp := newPool(t, 1<<20)
		spec := core.SetSpec{Name: "g", PageSize: 512}
		if columnar {
			spec.Layout, spec.Columns = core.LayoutColumnar, colWidths
		}
		set, err := bp.CreateSet(spec)
		if err != nil {
			t.Fatal(err)
		}
		w := NewSeqWriter(set)
		z, err := AttachZoneMap(w, ZoneMapSpec{Schema: zmSchema(), BloomCols: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		m, err := AttachMicroindex(w, miSpec())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if err := w.Add(colRec(i * 7 % 400)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out["zonemap/"+layout], out["microindex/"+layout] = z.Marshal(), m.Marshal()
	}

	// Edge shapes: schema (u32 key, f64 val, 3-byte blob, u8 flag) with the
	// designated columns given out of order.
	schema := MakeSchema([]string{"key", "val", "blob", "flag"}, []int{4, 8, 3, 1})
	rec := func(key uint32, val float64, flag byte) []byte {
		r := make([]byte, 16)
		binary.LittleEndian.PutUint32(r[0:4], key)
		binary.LittleEndian.PutUint64(r[4:12], math.Float64bits(val))
		r[15] = flag
		return r
	}
	z, err := NewZoneMap(ZoneMapSpec{Schema: schema, BloomCols: []int{3, 0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMicroindex(MicroindexSpec{Schema: schema, Cols: []int{3, 0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []sideIndexer{z, m} {
		noteRows(t, x, 0, rec(10, 1.5, 1), rec(7, -2.5, 2))
		noteRows(t, x, 1, rec(20, math.NaN(), 1), rec(21, 4, 1))
		noteRows(t, x, 3, rec(40, 9, 3), rec(41, 8, 3)[:6]) // short record: page 3 poisoned
		noteRows(t, x, 2, rec(30, 0, 2), rec(10, 0, 1))     // an earlier page noted after a later one
	}
	out["zonemap/edges"], out["microindex/edges"] = z.Marshal(), m.Marshal()
	return out
}

// TestSideObjectGoldenBytes pins the persisted format of both side-index
// kinds: the SHA-256 of each marshaled object — the zone maps' captured at
// the commit before the two lifecycles were folded onto the shared skeleton,
// the microindexes' when the v2 pair body replaced the v1 posting lists — so
// any byte a later change moves in either format fails here.
func TestSideObjectGoldenBytes(t *testing.T) {
	want := map[string]string{
		"zonemap/row":         "2a78f7474cf7234394af5ea6e891d353d12f5373a5040529e1b698ae4edf8ee8",
		"zonemap/columnar":    "ca7d5c3373b9dc255b832774a9849c7b40f76cd69430e2b6eb0eda280d6fd23b",
		"zonemap/edges":       "9986f043ffd74681951458c60ea4139c2998263b9fb454c67d4f07b69ccbc8c1",
		"microindex/row":      "9a7b005ffb024451116376b958baa6f4935767820f6376483460779709df4a28",
		"microindex/columnar": "4542e6e063e0f2ee81f9b37fad63f27ff20b15182152032a5fd0e508f5371621",
		"microindex/edges":    "93f161253dadb538203bf2468f89854a3cb181bbd784362315b07513ed5e9fa6",
	}
	got := goldenSideObjects(t)
	if len(got) != len(want) {
		t.Errorf("built %d side objects, golden table pins %d", len(got), len(want))
	}
	for name, data := range got {
		sum := sha256.Sum256(data)
		if h := hex.EncodeToString(sum[:]); h != want[name] {
			t.Errorf("%s: %d bytes hash to %s, golden %s", name, len(data), h, want[name])
		}
	}
}

// sideKinds adapts each side-index kind to the shared-lifecycle tests:
// attach wires a fresh index into a writer, ensure runs the kind's Ensure
// and, when it succeeds, verifies the result against a rescan of the set.
var sideKinds = []struct {
	name, tag string
	attach    func(w *SeqWriter) (interface{ Save(*core.LocalitySet) error }, error)
	ensure    func(t *testing.T, set *core.LocalitySet) error
}{
	{"zonemap", ZoneMapTag,
		func(w *SeqWriter) (interface{ Save(*core.LocalitySet) error }, error) {
			return AttachZoneMap(w, ZoneMapSpec{Schema: zmSchema()})
		},
		func(t *testing.T, set *core.LocalitySet) error {
			z, err := EnsureZoneMap(set, ZoneMapSpec{Schema: zmSchema()})
			if err == nil {
				zmCheckRanges(t, set, z)
			}
			return err
		}},
	{"microindex", MicroindexTag,
		func(w *SeqWriter) (interface{ Save(*core.LocalitySet) error }, error) {
			return AttachMicroindex(w, miSpec())
		},
		func(t *testing.T, set *core.LocalitySet) error {
			m, err := EnsureMicroindex(set, miSpec())
			if err == nil {
				if !m.Covers(set.NumPages()) {
					t.Errorf("ensured index covers %d of %d pages", m.NumPages(), set.NumPages())
				}
				miCheckExact(t, set, m)
			}
			return err
		}},
}

// TestEnsureSideIndexHeals drives the shared Ensure path through every
// state a persisted side object can be in, once per kind. Absent and stale
// objects rebuild silently; a CRC-torn pfs frame and a well-framed but
// undecodable payload rebuild and count a SideObjectRebuild; a drive read
// fault must surface instead — before the heal discipline distinguished
// error classes any read error fell through to rebuild-and-save, so a warm
// set quietly papered over a failing drive and overwrote an object that may
// be intact on disk. Every heal must leave an exact, persisted, attached
// index.
func TestEnsureSideIndexHeals(t *testing.T) {
	fault := errors.New("injected drive fault")
	add := func(t *testing.T, w *SeqWriter, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := w.Add(colRec(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name         string
		save         bool // persist the attached index before damaging it
		damage       func(t *testing.T, bp *core.BufferPool, set *core.LocalitySet, tag string)
		wantRebuilds int64
		wantFault    bool
	}{
		{name: "absent"},
		{name: "undecodable", save: true, wantRebuilds: 1,
			damage: func(t *testing.T, _ *core.BufferPool, set *core.LocalitySet, tag string) {
				if err := set.WriteSideObject(tag, []byte("not a side object")); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "torn", save: true, wantRebuilds: 1,
			damage: func(t *testing.T, bp *core.BufferPool, set *core.LocalitySet, tag string) {
				f, err := bp.Array().Disk(0).OpenFile(fmt.Sprintf("c.%d.%s", set.ID(), tag))
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Truncate(10); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "stale", save: true,
			damage: func(t *testing.T, _ *core.BufferPool, set *core.LocalitySet, _ string) {
				add(t, NewSeqWriter(set), 100, 300) // pages the saved object never saw
			}},
		{name: "read fault", save: true, wantFault: true,
			damage: func(_ *testing.T, bp *core.BufferPool, _ *core.LocalitySet, _ string) {
				bp.Array().Disk(0).SetReadFault(func() error { return fault })
			}},
	}
	for _, k := range sideKinds {
		for _, tc := range cases {
			t.Run(k.name+"/"+tc.name, func(t *testing.T) {
				bp := newPool(t, 1<<20)
				set := mkColSet(t, bp, "c", 512)
				w := NewSeqWriter(set)
				idx, err := k.attach(w)
				if err != nil {
					t.Fatal(err)
				}
				add(t, w, 0, 100)
				if tc.save {
					if err := idx.Save(set); err != nil {
						t.Fatal(err)
					}
				}
				if tc.damage != nil {
					tc.damage(t, bp, set, k.tag)
				}
				set.SetSideIndex(k.tag, nil)

				err = k.ensure(t, set)
				bp.Array().Disk(0).SetReadFault(nil)
				if tc.wantFault {
					if !errors.Is(err, fault) {
						t.Fatalf("Ensure with a failing drive = %v, want the injected fault", err)
					}
					if set.SideIndex(k.tag) != nil {
						t.Error("a failed Ensure attached an index")
					}
					// With the drive healthy again the persisted object, left
					// untouched, loads as-is.
					err = k.ensure(t, set)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := set.Stats().SideObjectRebuilds.Load(); got != tc.wantRebuilds {
					t.Errorf("counted %d side-object rebuilds, want %d", got, tc.wantRebuilds)
				}
				if set.SideIndex(k.tag) == nil {
					t.Error("Ensure did not attach the index it returned")
				}
				// What Ensure returned is also what is on disk now: a second
				// Ensure from a detached state loads it without healing.
				set.SetSideIndex(k.tag, nil)
				if err := k.ensure(t, set); err != nil {
					t.Fatal(err)
				}
				if got := set.Stats().SideObjectRebuilds.Load(); got != tc.wantRebuilds {
					t.Errorf("re-Ensure counted %d side-object rebuilds, want still %d", got, tc.wantRebuilds)
				}
			})
		}
	}
}
