package query

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"pangea/internal/core"
	"pangea/internal/services"
)

// joinRows draws n (id, key, amount) rows with keys uniform in
// [keyLo, keyLo+keys): small domains give duplicates on whichever side.
func joinRows(rng *rand.Rand, n, keyLo, keys int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = mkRow(uint32(i), uint32(keyLo+rng.Intn(keys)), uint32(rng.Intn(1000)))
	}
	return rows
}

// joinTuple is one inner-join output row: the probe row's id and amount,
// the build row's id and amount.
type joinTuple [4]uint32

// TestJoinMatchesNestedLoop: inner, semi and anti joins through the batch
// hash join agree with a nested-loop reference kept here, on row and
// columnar inputs, over random data with duplicate keys on both sides and
// the degenerate shapes: empty build, empty probe, no key in common, and a
// build side several times the pool — its pages spill while it is built and
// reload while it is probed.
func TestJoinMatchesNestedLoop(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		pool                       int64
		nBuild, buildLo, buildKeys int
		nProbe, probeKeys          int
		wantSpill                  bool
	}{
		{name: "duplicates", pool: 8 << 20, nBuild: 300, buildKeys: 40, nProbe: 2000, probeKeys: 60},
		{name: "empty-build", pool: 8 << 20, nBuild: 0, buildKeys: 1, nProbe: 500, probeKeys: 60},
		{name: "empty-probe", pool: 8 << 20, nBuild: 300, buildKeys: 40, nProbe: 0, probeKeys: 1},
		{name: "all-miss", pool: 8 << 20, nBuild: 300, buildLo: 1000, buildKeys: 40, nProbe: 500, probeKeys: 60},
		{name: "build-spills", pool: 128 << 10, nBuild: 30000, buildKeys: 10000, nProbe: 800, probeKeys: 15000, wantSpill: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name)) * 7919))
			build := joinRows(rng, tc.nBuild, tc.buildLo, tc.buildKeys)
			probe := joinRows(rng, tc.nProbe, 0, tc.probeKeys)

			// The nested-loop reference.
			wantInner := make(map[joinTuple]int)
			var wantSemi, wantAnti int64
			for _, p := range probe {
				matched := false
				for _, b := range build {
					if rowGroup(b) == rowGroup(p) {
						matched = true
						wantInner[joinTuple{rowID(p), rowAmount(p), rowID(b), rowAmount(b)}]++
					}
				}
				if matched {
					wantSemi += int64(rowID(p))
				} else {
					wantAnti += int64(rowID(p))
				}
			}

			for _, layout := range []string{"row", "columnar"} {
				bp := newPool(t, tc.pool)
				load := func(name string, rows []Row) ScanSpec {
					if layout == "row" {
						s, err := bp.CreateSet(core.SetSpec{Name: name, PageSize: 4 << 10})
						if err != nil {
							t.Fatal(err)
						}
						if err := services.WriteAll(s, rows); err != nil {
							t.Fatal(err)
						}
						return ScanSpec{Set: s, Threads: 2, Schema: testSchema()}
					}
					return ScanSpec{Set: loadColSet(t, bp, name, rows), Threads: 2}
				}
				buildSpec, probeSpec := load("build", build), load("probe", probe)

				// Build on the key column, projecting (id, amount).
				j, err := NewJoin(bp, "tmp-join", 4<<10, 4, 4)
				if err != nil {
					t.Fatal(err)
				}
				err = buildSpec.RunBatches(func(_ int, b *Batch) error { return j.Add(b, 1, 0, 2) })
				if err == nil {
					err = j.Seal()
				}
				if err != nil {
					t.Fatalf("%s build: %v", layout, err)
				}
				joinSet, _ := bp.GetSet("tmp-join")
				if spilled := joinSet.Stats().SpillWrites.Load() > 0; spilled != tc.wantSpill {
					t.Errorf("%s: build side spilled=%v (%d pages of %d bytes in a %d-byte pool), want %v",
						layout, spilled, joinSet.NumPages(), joinSet.PageSize(), tc.pool, tc.wantSpill)
				}

				var mu sync.Mutex
				gotInner := make(map[joinTuple]int)
				var gotSemi, gotAnti int64
				outs := make([]Batch, 2)
				err = probeSpec.RunBatches(func(th int, b *Batch) error {
					out := &outs[th]
					if err := j.Inner(b, 1, []int{0, 2}, out); err != nil {
						return err
					}
					var semi, anti int64
					all := append([]int32(nil), b.Sel()...)
					j.Semi(b, 1)
					for _, i := range b.Sel() {
						semi += int64(b.U32(0, int(i)))
					}
					b.sel = append(b.sel[:0], all...)
					j.Anti(b, 1)
					for _, i := range b.Sel() {
						anti += int64(b.U32(0, int(i)))
					}
					mu.Lock()
					defer mu.Unlock()
					gotSemi, gotAnti = gotSemi+semi, gotAnti+anti
					if out.NumCols() != 4 || out.Selected() != out.NumRows() {
						t.Errorf("%s: inner output has %d columns, %d of %d rows selected", layout, out.NumCols(), out.Selected(), out.NumRows())
					}
					for row := 0; row < out.NumRows(); row++ {
						gotInner[joinTuple{out.U32(0, row), out.U32(1, row), out.U32(2, row), out.U32(3, row)}]++
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s probe: %v", layout, err)
				}
				if gotSemi != wantSemi || gotAnti != wantAnti {
					t.Errorf("%s: semi id-sum %d, anti %d; want %d, %d", layout, gotSemi, gotAnti, wantSemi, wantAnti)
				}
				if len(gotInner) != len(wantInner) {
					t.Errorf("%s: inner join produced %d distinct rows, want %d", layout, len(gotInner), len(wantInner))
				}
				for tuple, n := range wantInner {
					if gotInner[tuple] != n {
						t.Errorf("%s: inner row %v ×%d, want ×%d", layout, tuple, gotInner[tuple], n)
						break
					}
				}
				if err := j.Drop(); err != nil {
					t.Fatal(err)
				}
				noTempSets(t, bp, layout+" after Drop")
			}
		})
	}
}

// TestJoinRejectsMismatchedProjection: Add checks the projected columns
// against the widths the join was made for.
func TestJoinRejectsMismatchedProjection(t *testing.T) {
	bp := newPool(t, 4<<20)
	s := loadColSet(t, bp, "c", testRows(10))
	j, err := NewJoin(bp, "tmp-join", 4<<10, 8)
	if err != nil {
		t.Fatal(err)
	}
	err = ScanSpec{Set: s}.RunBatches(func(_ int, b *Batch) error { return j.Add(b, 1, 0) })
	if err == nil {
		t.Error("projecting a 4-byte column into an 8-byte payload must error")
	}
	err = ScanSpec{Set: s}.RunBatches(func(_ int, b *Batch) error { return j.Add(b, 1) })
	if err == nil {
		t.Error("projecting no column into a one-column payload must error")
	}
	if err := j.Drop(); err != nil {
		t.Fatal(err)
	}
}

// TestMarkJoin: a semi and an anti join built from the small side — Mark
// from two probe threads, then Marked — reach exactly the build records a
// nested loop matches (or does not), on row and columnar inputs. Keys are 8
// bytes, the join map's word-keyed index; build keys repeat, so one probe
// row marks every record under its key. Run it under -race: the two probe
// threads mark one bitmap.
func TestMarkJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rowsOf := func(n, keyLo, keys int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			r := binary.LittleEndian.AppendUint64(nil, uint64(keyLo+rng.Intn(keys))*0x9E3779B97F4A7C15)
			rows[i] = binary.LittleEndian.AppendUint32(r, uint32(i))
		}
		return rows
	}
	build, probe := rowsOf(600, 0, 400), rowsOf(5000, 250, 1000)
	probed := map[uint64]bool{}
	for _, p := range probe {
		probed[binary.LittleEndian.Uint64(p)] = true
	}
	schema := services.MakeSchema([]string{"key", "id"}, []int{8, 4})
	for _, layout := range []core.PageLayout{core.LayoutRow, core.LayoutColumnar} {
		bp := newPool(t, 8<<20)
		load := func(name string, rows []Row) ScanSpec {
			spec := core.SetSpec{Name: name, PageSize: 4 << 10, Layout: layout}
			if layout == core.LayoutColumnar {
				spec.Columns = []int{8, 4}
			}
			s, err := bp.CreateSet(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := services.WriteAll(s, rows); err != nil {
				t.Fatal(err)
			}
			return ScanSpec{Set: s, Threads: 2, Schema: schema}
		}
		buildSpec, probeSpec := load("build", build), load("probe", probe)
		j, err := NewJoin(bp, "tmp-join", 4<<10, 4)
		if err != nil {
			t.Fatal(err)
		}
		err = buildSpec.RunBatches(func(_ int, b *Batch) error { return j.Add(b, 0, 1) })
		if err == nil {
			err = j.Seal()
		}
		if err == nil {
			err = probeSpec.RunBatches(func(_ int, b *Batch) error { j.Mark(b, 0); return nil })
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, marked := range []bool{true, false} {
			got := map[uint32]bool{}
			err := j.Marked(marked, func(_ int, b *Batch) error {
				for _, i := range b.Sel() {
					got[b.U32(0, int(i))] = true
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for i, r := range build {
				if probed[binary.LittleEndian.Uint64(r)] != marked {
					continue
				}
				if want++; !got[uint32(i)] {
					t.Errorf("layout %d, marked=%v: build record %d missing", layout, marked, i)
				}
			}
			if len(got) != want {
				t.Errorf("layout %d, marked=%v: %d build records, want %d", layout, marked, len(got), want)
			}
		}
		if err := j.Drop(); err != nil {
			t.Fatal(err)
		}
	}
}
