package services

import (
	"encoding/binary"
	"math"
	"testing"

	"pangea/internal/core"
)

// zmSchema matches colRec: u32 key, u16 tag, u64 value.
func zmSchema() []ColumnSpec {
	return MakeSchema([]string{"key", "tag", "val"}, colWidths)
}

// zmCheckRanges verifies the map's per-page min/max against a rescan of the
// set's actual bytes — the summaries must be exact, not merely conservative.
func zmCheckRanges(t *testing.T, set *core.LocalitySet, z *ZoneMap) {
	t.Helper()
	for _, num := range set.PageNums() {
		wantMin := map[int]uint64{}
		wantMax := map[int]uint64{}
		rows := 0
		p, err := set.Pin(num)
		if err != nil {
			t.Fatal(err)
		}
		err = WalkPage(p.Bytes(), func(rec []byte) error {
			for c, off := 0, 0; c < len(colWidths); c++ {
				var u uint64
				switch colWidths[c] {
				case 2:
					u = uint64(binary.LittleEndian.Uint16(rec[off:]))
				case 4:
					u = uint64(binary.LittleEndian.Uint32(rec[off:]))
				default:
					u = binary.LittleEndian.Uint64(rec[off:])
				}
				if rows == 0 || u < wantMin[c] {
					wantMin[c] = u
				}
				if rows == 0 || u > wantMax[c] {
					wantMax[c] = u
				}
				off += colWidths[c]
			}
			rows++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Unpin(p, false); err != nil {
			t.Fatal(err)
		}
		for c := range colWidths {
			lo, hi, ok := z.ColRangeU(num, c)
			if !ok {
				t.Fatalf("page %d col %d: no summary", num, c)
			}
			if lo != wantMin[c] || hi != wantMax[c] {
				t.Errorf("page %d col %d: summary [%d,%d], actual [%d,%d]", num, c, lo, hi, wantMin[c], wantMax[c])
			}
		}
	}
}

// TestZoneMapIncrementalMatchesRebuild: the append-time map (row and
// columnar writer hooks alike) carries exact per-page ranges, identical to
// what a from-scratch rebuild of the same set derives.
func TestZoneMapIncrementalMatchesRebuild(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		name := map[bool]string{false: "row", true: "columnar"}[columnar]
		t.Run(name, func(t *testing.T) {
			bp := newPool(t, 1<<20)
			spec := core.SetSpec{Name: "s", PageSize: 512}
			if columnar {
				spec.Layout = core.LayoutColumnar
				spec.Columns = colWidths
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
			const n = 400
			for i := 0; i < n; i++ {
				if err := w.Add(colRec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !z.Covers(set.NumPages()) {
				t.Fatalf("map covers %d of %d pages", z.NumPages(), set.NumPages())
			}
			zmCheckRanges(t, set, z)

			// A rebuild from the pages derives the same summaries.
			set.SetSideIndex(ZoneMapTag, nil)
			rebuilt, err := EnsureZoneMap(set, ZoneMapSpec{Schema: zmSchema(), BloomCols: []int{1}})
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt == z {
				t.Fatal("EnsureZoneMap returned the detached map")
			}
			zmCheckRanges(t, set, rebuilt)

		})
	}
}

// TestZoneMapBloomExcludesSparseValues: with sparse equality-column values,
// the per-page bloom excludes most absent values that min/max alone cannot
// (they fall inside the page's range), never a present one, and survives a
// marshal/load round trip.
func TestZoneMapBloomExcludesSparseValues(t *testing.T) {
	spec := ZoneMapSpec{Schema: zmSchema(), BloomCols: []int{1}}
	z, err := NewZoneMap(spec)
	if err != nil {
		t.Fatal(err)
	}
	present := map[uint64]bool{}
	var recs [][]byte
	for i := 0; i < 40; i++ {
		rec := colRec(i)
		tag := uint16(i * 97)
		binary.LittleEndian.PutUint16(rec[4:6], tag)
		present[uint64(tag)] = true
		recs = append(recs, rec)
	}
	noteRows(t, z, 0, recs...)
	loaded, err := decodeZoneMap(z.Marshal(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*ZoneMap{z, loaded} {
		lo, hi, ok := m.ColRangeU(0, 1)
		if !ok || lo != 0 || hi != 39*97 {
			t.Fatalf("tag range [%d,%d] ok=%v, want [0,%d]", lo, hi, ok, 39*97)
		}
		excluded, absent := 0, 0
		for v := lo; v <= hi; v++ {
			if present[v] {
				if !m.MayContain(0, 1, v) {
					t.Errorf("bloom excluded present tag %d", v)
				}
				continue
			}
			absent++
			if !m.MayContain(0, 1, v) {
				excluded++
			}
		}
		// 40 values in a 256-bit bloom: the false-positive rate is under 10%,
		// so the vast majority of absent in-range tags must be excluded.
		if excluded < absent/2 {
			t.Errorf("bloom excluded %d of %d absent in-range tags", excluded, absent)
		}
	}
}

// TestZoneMapPersistRoundTrip: Save/Load round-trips every summary; a
// reshaped spec is rejected by the header check and healed by rebuild.
// (Stale, torn and unreadable objects: TestEnsureSideIndexHeals.)
func TestZoneMapPersistRoundTrip(t *testing.T) {
	bp := newPool(t, 1<<20)
	set := mkColSet(t, bp, "c", 512)
	w := NewSeqWriter(set)
	z, err := AttachZoneMap(w, ZoneMapSpec{Schema: zmSchema()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := w.Add(colRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := z.Save(set); err != nil {
		t.Fatal(err)
	}

	loaded, err := decodeZoneMap(z.Marshal(), ZoneMapSpec{Schema: zmSchema()})
	if err != nil {
		t.Fatal(err)
	}
	zmCheckRanges(t, set, loaded)
	set.SetSideIndex(ZoneMapTag, nil)
	ensured, err := EnsureZoneMap(set, ZoneMapSpec{Schema: zmSchema()})
	if err != nil {
		t.Fatal(err)
	}
	zmCheckRanges(t, set, ensured)

	// Reshaped spec: the persisted object no longer matches, Ensure rebuilds.
	set.SetSideIndex(ZoneMapTag, nil)
	reshaped := ZoneMapSpec{Schema: MakeSchema([]string{"key", "tag"}, []int{4, 2})}
	if _, err := decodeZoneMap(z.Marshal(), reshaped); err == nil {
		t.Error("loading under a reshaped spec must error")
	}
	if _, err := EnsureZoneMap(set, reshaped); err != nil {
		t.Fatalf("Ensure under reshaped spec: %v", err)
	}
}

// TestZoneMapConservativeEdges: untracked wide columns never prune, short
// records poison their page, and NaN floats poison only the float ranges.
func TestZoneMapConservativeEdges(t *testing.T) {
	// Wide (untracked) columns are carried but never answer.
	wide := ZoneMapSpec{Schema: MakeSchema([]string{"key", "blob"}, []int{4, 40})}
	z, err := NewZoneMap(wide)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 44)
	binary.LittleEndian.PutUint32(rec[0:4], 7)
	noteRows(t, z, 0, rec)
	if lo, hi, ok := z.ColRangeU(0, 0); !ok || lo != 7 || hi != 7 {
		t.Errorf("tracked col: [%d,%d] ok=%v, want [7,7]", lo, hi, ok)
	}
	if _, _, ok := z.ColRangeU(0, 1); ok {
		t.Error("untracked 40-byte column answered a range query")
	}
	if !z.MayContain(0, 1, 0) {
		t.Error("untracked column excluded a value")
	}
	if _, err := NewZoneMap(ZoneMapSpec{Schema: wide.Schema, BloomCols: []int{1}}); err == nil {
		t.Error("bloom on an untracked column must error")
	}

	// A short record invalidates its page but keeps it covered.
	z2, err := NewZoneMap(ZoneMapSpec{Schema: zmSchema()})
	if err != nil {
		t.Fatal(err)
	}
	noteRows(t, z2, 0, colRec(1), []byte{1, 2})
	if !z2.Covers(1) {
		t.Error("poisoned page lost coverage")
	}
	if _, _, ok := z2.ColRangeU(0, 0); ok {
		t.Error("poisoned page still answers range queries")
	}
	if !z2.MayContain(0, 0, 999) {
		t.Error("poisoned page excluded a value")
	}

	// NaN poisons the float interpretation, not the unsigned one.
	fspec := ZoneMapSpec{Schema: MakeSchema([]string{"f"}, []int{8})}
	z3, err := NewZoneMap(fspec)
	if err != nil {
		t.Fatal(err)
	}
	frec := func(f float64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, math.Float64bits(f))
		return b
	}
	noteRows(t, z3, 0, frec(1.5), frec(math.NaN()), frec(-2.5))
	if _, _, ok := z3.ColRangeF64(0, 0); ok {
		t.Error("NaN page still answers float range queries")
	}
	if _, _, ok := z3.ColRangeU(0, 0); !ok {
		t.Error("NaN poisoned the unsigned interpretation too")
	}
	noteRows(t, z3, 1, frec(1.5), frec(-2.5))
	if lo, hi, ok := z3.ColRangeF64(1, 0); !ok || lo != -2.5 || hi != 1.5 {
		t.Errorf("float range [%v,%v] ok=%v, want [-2.5,1.5]", lo, hi, ok)
	}
}
