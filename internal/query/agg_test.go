package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pangea/internal/core"
	"pangea/internal/services"
)

// A row of TestAggMatchesMap is key columns of 1, 2, 4 and 8 bytes, then a
// u32 and an f64 value column.
const aggRowSize = 1 + 2 + 4 + 8 + 4 + 8

var aggWidths = []int{1, 2, 4, 8, 4, 8}

func aggRowVals(r Row) (k1, k2, k4, k8 uint64, v4, v8 float64) {
	le := binary.LittleEndian
	return uint64(r[0]), uint64(le.Uint16(r[1:])), uint64(le.Uint32(r[3:])), le.Uint64(r[7:]),
		float64(le.Uint32(r[15:])), math.Float64frombits(le.Uint64(r[19:]))
}

// TestAggMatchesMap holds the declarative aggregate to a plain Go map:
// random rows on both layouts, grouped by a 1-, 2-, 4- and 8-byte key
// column, by three columns packed into one 7-byte key, and by a computed
// key, with every fold, on one scan thread and on two. Values are small
// integers, so every sum is exact and the results compare exactly. The
// pool is small enough that the hash pages are 16 KiB (8 KiB on two
// threads), a couple of hundred groups each, and most keys take thousands
// of values: a batch brings more groups than its thread's pages have room
// for, so pages retire in the middle of batches — and a slot the directory
// handed out before a retire must not be folded into after it.
func TestAggMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rows := make([]Row, 30000)
	for i := range rows {
		r := make(Row, aggRowSize)
		r[0] = byte(rng.Intn(200))
		binary.LittleEndian.PutUint16(r[1:], uint16(rng.Intn(3000)))
		binary.LittleEndian.PutUint32(r[3:], uint32(rng.Intn(5000))<<16)
		binary.LittleEndian.PutUint64(r[7:], uint64(rng.Intn(20000))*0x9E3779B97F4A7C15)
		binary.LittleEndian.PutUint32(r[15:], uint32(rng.Intn(100)))
		binary.LittleEndian.PutUint64(r[19:], math.Float64bits(float64(rng.Intn(2000)-1000)))
		rows[i] = r
	}
	folds := []Fold{Count(), Sum(4), Sum(5), SumProduct(Of(5), OneMinus(4), OnePlus(0)), Min(5), Max(4), Min(1)}
	fold := func(acc []float64, k1, k2, v4, v8 float64) {
		acc[0]++
		acc[1] += v4
		acc[2] += v8
		acc[3] += v8 * (1 - v4) * (1 + k1)
		acc[4], acc[5], acc[6] = min(acc[4], v8), max(acc[5], v4), min(acc[6], k2)
	}
	computed := func(b *Batch, sel []int32, keys []uint64) {
		for k, i := range sel {
			keys[k] = b.U64(3, int(i)) % 7777
		}
	}
	for _, tc := range []struct {
		name string
		agg  Agg
		key  func(k1, k2, k4, k8 uint64) []byte
	}{
		{"key1", Agg{Keys: []int{0}}, func(k1, _, _, _ uint64) []byte { return []byte{byte(k1)} }},
		{"key2", Agg{Keys: []int{1}}, func(_, k2, _, _ uint64) []byte { return binary.LittleEndian.AppendUint16(nil, uint16(k2)) }},
		{"key4", Agg{Keys: []int{2}}, func(_, _, k4, _ uint64) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(k4)) }},
		{"key8", Agg{Keys: []int{3}}, func(_, _, _, k8 uint64) []byte { return binary.LittleEndian.AppendUint64(nil, k8) }},
		{"key2+1+4", Agg{Keys: []int{1, 0, 2}}, func(k1, k2, k4, _ uint64) []byte {
			return binary.LittleEndian.AppendUint64(nil, k2|k1<<16|k4<<24)[:7]
		}},
		{"computed", Agg{KeyFn: computed, KeyWidth: 2}, func(_, _, _, k8 uint64) []byte {
			return binary.LittleEndian.AppendUint16(nil, uint16(k8%7777))
		}},
	} {
		want := map[string][]float64{}
		for _, r := range rows {
			k1, k2, k4, k8, v4, v8 := aggRowVals(r)
			k := string(tc.key(k1, k2, k4, k8))
			if want[k] == nil {
				want[k] = []float64{0, 0, 0, 0, math.Inf(1), math.Inf(-1), math.Inf(1)}
			}
			fold(want[k], float64(k1), float64(k2), v4, v8)
		}
		tc.agg.Folds = folds
		for _, threads := range []int{1, 2} {
			for _, layout := range []core.PageLayout{core.LayoutRow, core.LayoutColumnar} {
				t.Run(fmt.Sprintf("%s/threads=%d/layout=%d", tc.name, threads, layout), func(t *testing.T) {
					bp := newPool(t, 1<<20)
					spec := core.SetSpec{Name: "rows", PageSize: 64 << 10, Layout: layout}
					if layout == core.LayoutColumnar {
						spec.Columns = aggWidths
					}
					set, err := bp.CreateSet(spec)
					if err != nil {
						t.Fatal(err)
					}
					if err := services.WriteAll(set, rows); err != nil {
						t.Fatal(err)
					}
					sp := ScanSpec{Set: set, Threads: threads, Schema: services.MakeSchema(make([]string, 6), aggWidths)}
					got, err := sp.AggBatches(bp, "tmp-agg", nil, tc.agg)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%d groups, want %d", len(got), len(want))
					}
					for k, w := range want {
						v, ok := got[k]
						if !ok {
							t.Fatalf("group %x missing", k)
						}
						for f := range w {
							if g := f64(v[8*f:]); g != w[f] {
								t.Fatalf("group %x fold %d = %v, want %v", k, f, g, w[f])
							}
						}
					}
				})
			}
		}
	}
}

// TestAggregateOverMarked: an aggregate fed by Join.Marked, whose batches end
// every 4 096 records, folds exactly what a Go map does — every record of a
// join never probed with Mark (Marked(false)), then, after a Mark that reaches
// about half of the keys, the marked and the unmarked records. Build keys
// repeat, and so do the group keys, which cut across them.
func TestAggregateOverMarked(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	bp := newPool(t, 8<<20)
	const n, keys = 10000, 3000
	type rec struct {
		key uint64
		g   uint16
		v   uint32
		x   float64
	}
	recs := make([]rec, n)
	j, err := NewJoin(bp, "tmp-join", 64<<10, 2, 4, 8) // payload (g, v, x)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j.Drop() }()
	for i := range recs {
		r := rec{key: uint64(rng.Intn(keys)), g: uint16(rng.Intn(50)), v: uint32(rng.Intn(1000)), x: float64(rng.Intn(2000) - 1000)}
		recs[i] = r
		pay := binary.LittleEndian.AppendUint16(nil, r.g)
		pay = binary.LittleEndian.AppendUint32(pay, r.v)
		if err := j.Insert(r.key, binary.LittleEndian.AppendUint64(pay, math.Float64bits(r.x))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	agg := Agg{Keys: []int{0}, Folds: []Fold{Count(), Sum(1), Min(2)}}
	check := func(name string, keep func(rec) bool) {
		t.Helper()
		want := map[string][]float64{}
		in := 0
		for _, r := range recs {
			if !keep(r) {
				continue
			}
			in++
			k := string(binary.LittleEndian.AppendUint16(nil, r.g))
			if want[k] == nil {
				want[k] = []float64{0, 0, math.Inf(1)}
			}
			w := want[k]
			w[0], w[1], w[2] = w[0]+1, w[1]+float64(r.v), min(w[2], r.x)
		}
		if in <= 4096 {
			t.Fatalf("%s: %d records, not more than one batch", name, in)
		}
		marked := name == "marked"
		batches := 0
		got, err := Aggregate(bp, "tmp-agg", 1, agg, func(fn func(int, *Batch) error) error {
			return j.Marked(marked, func(t int, b *Batch) error { batches++; return fn(t, b) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if batches < 2 {
			t.Errorf("%s: %d records came in %d batch", name, in, batches)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", name, len(got), len(want))
		}
		for k, w := range want {
			for f := range w {
				if g := f64(got[k][8*f:]); g != w[f] {
					t.Fatalf("%s: group %x fold %d = %v, want %v", name, k, f, g, w[f])
				}
			}
		}
	}
	check("unprobed", func(rec) bool { return true })

	probe := make([]Row, 0, keys)
	for k := range keys {
		if k%2 == 0 {
			probe = append(probe, binary.LittleEndian.AppendUint64(nil, uint64(k)))
		}
	}
	sp := ScanSpec{Set: loadSet(t, bp, "probe", probe), Threads: 2, Schema: services.MakeSchema([]string{"key"}, []int{8})}
	if err := sp.RunBatches(func(_ int, b *Batch) error { return j.Mark(b, 0) }); err != nil {
		t.Fatal(err)
	}
	check("marked", func(r rec) bool { return r.key%2 == 0 })
	check("unmarked", func(r rec) bool { return r.key%2 != 0 })
}
