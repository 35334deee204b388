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
