package query

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Bound shapes FuzzSelKernels steers lo and hi into (mode % 8), so the
// edges the branch-free compare has to get right come up on every run, not
// only when the mutator finds them.
const (
	boundsAsGiven = iota
	boundsEq      // hi = lo+1: ColEq's shape, and SelU64Range's block skip
	boundsEqLane  // hi = lo+1 with lo a value the column holds
	boundsFull    // the width's whole domain
	boundsEmpty   // hi = lo
	boundsReverse // hi < lo
	boundsFromZero
	boundsToMax
)

// FuzzSelKernels is the typed selection kernels' differential test: over a
// column of width 1, 2, 4 or 8 bytes and any length (not only multiples of
// four or eight lanes), each Sel* kernel — SelLess against the column's
// lanes reversed — keeps exactly the lanes a scalar
// loop over the same candidates keeps, index for index — on the all-rows
// path (seed 0) and over a random prior selection (any other seed). mode's
// bit 3 plants NaN, ±0 and ±Inf lanes for SelF64Range. The seeds under
// testdata/fuzz/FuzzSelKernels put each kernel's edges in every plain go test
// run.
func FuzzSelKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, width, mode uint8, lo, hi, seed uint64, data []byte) {
		w := []int{1, 2, 4, 8}[width%4]
		n := len(data) / w
		col := slices.Clone(data[:n*w])
		maxV := widthMax(w)
		if w < 8 {
			// Into the width's domain, with one past its maximum reachable
			// (SelByteRange's hi = 256).
			lo, hi = lo%(maxV+2), hi%(maxV+2)
		}
		if w == 8 && mode&8 != 0 {
			specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
			for i := 0; i < n; i += 3 {
				le.PutUint64(col[8*i:], math.Float64bits(specials[i%len(specials)]))
			}
		}
		lane := func(i int) uint64 { return readLane(col, w, i) }
		// SelLess's other column: col's lanes in reverse order.
		rev := make([]byte, len(col))
		for i := 0; i < n; i++ {
			copy(rev[i*w:i*w+w], col[(n-1-i)*w:])
		}
		switch mode % 8 {
		case boundsEq:
			hi = lo + 1
		case boundsEqLane: // lo picks the lane
			if n > 0 {
				lo = lane(int(lo % uint64(n)))
			}
			hi = lo + 1
		case boundsFull:
			lo, hi = 0, maxV+1 // wraps to 0 at width 8: an empty range there
		case boundsEmpty:
			hi = lo
		case boundsReverse:
			lo, hi = max(lo, hi), min(lo, hi)
		case boundsFromZero:
			lo = 0
		case boundsToMax:
			hi = maxV
		}

		var prior []int32 // nil: every row is a candidate
		cand := make([]bool, n)
		rng := rand.New(rand.NewSource(int64(seed)))
		for i := range cand {
			cand[i] = seed == 0 || rng.Intn(3) != 0
			if seed != 0 && cand[i] {
				prior = append(prior, int32(i))
			}
		}
		if seed != 0 && prior == nil {
			prior = []int32{} // an empty prior selection keeps nothing
		}
		check := func(name string, kernel func(*Batch), keep func(i int) bool) {
			t.Helper()
			b := &Batch{n: n, widths: []int{w, w}, cols: [][]byte{col, rev}, store: make([][]byte, 2)}
			b.selBuf = make([]int32, n+3) // stale contents must not leak
			for i := range b.selBuf {
				b.selBuf[i] = -1
			}
			want := []int32{}
			for i := 0; i < n; i++ {
				if cand[i] && keep(i) {
					want = append(want, int32(i))
				}
			}
			if prior != nil {
				b.sel = slices.Clone(prior)
			}
			kernel(b)
			if b.sel == nil {
				t.Fatalf("%s(lo=%d, hi=%d) over %d lanes left a nil selection, which means every row", name, lo, hi, n)
			}
			if !slices.Equal(b.sel, want) {
				t.Fatalf("%s(lo=%d, hi=%d) over %d %d-byte lanes (prior %v):\n got %v\nwant %v", name, lo, hi, n, w, prior, b.sel, want)
			}
		}
		check("SelLess", func(b *Batch) { b.SelLess(0, 1) },
			func(i int) bool { return lane(i) < readLane(rev, w, i) })
		switch w {
		case 1:
			check("SelByteRange", func(b *Batch) { b.SelByteRange(0, lo, hi) },
				func(i int) bool { return lane(i) >= lo && lane(i) < hi })
			check("SelByteEq", func(b *Batch) { b.SelByteEq(0, byte(lo)) },
				func(i int) bool { return lane(i) == uint64(byte(lo)) })
		case 2:
			l, h := uint16(lo), uint16(hi)
			check("SelU16Range", func(b *Batch) { b.SelU16Range(0, l, h) },
				func(i int) bool { return uint16(lane(i)) >= l && uint16(lane(i)) < h })
		case 4:
			l, h := uint32(lo), uint32(hi)
			check("SelU32Range", func(b *Batch) { b.SelU32Range(0, l, h) },
				func(i int) bool { return uint32(lane(i)) >= l && uint32(lane(i)) < h })
		case 8:
			check("SelU64Range", func(b *Batch) { b.SelU64Range(0, lo, hi) },
				func(i int) bool { return lane(i) >= lo && lane(i) < hi })
			flo, fhi := f64Bounds(mode, lo, hi)
			fl := func(i int) float64 { return math.Float64frombits(lane(i)) }
			check("SelF64Range", func(b *Batch) { b.SelF64Range(0, flo, fhi) },
				func(i int) bool { return fl(i) >= flo && fl(i) <= fhi })
		}
	})
}

// f64Bounds maps FuzzSelKernels' bound shapes onto SelF64Range's closed
// interval, with the float edges in place of the integer ones: ±0 as an
// equality, ±Inf as the whole domain, and NaN bounds.
func f64Bounds(mode uint8, lo, hi uint64) (float64, float64) {
	flo, fhi := math.Float64frombits(lo), math.Float64frombits(hi)
	negZero := math.Copysign(0, -1)
	switch mode % 8 {
	case boundsEq:
		flo, fhi = negZero, 0
	case boundsEqLane: // lo is the lane's value
		fhi = flo
	case boundsFull:
		flo, fhi = math.Inf(-1), math.Inf(1)
	case boundsEmpty:
		flo, fhi = 0, negZero // equal as floats: keeps ±0 lanes
	case boundsReverse:
		flo, fhi = max(flo, fhi), min(flo, fhi)
	case boundsFromZero:
		flo = math.NaN()
	case boundsToMax:
		fhi = math.NaN()
	}
	return flo, fhi
}

// readLane reads lane i of a column of w-byte little-endian lanes.
func readLane(col []byte, w, i int) uint64 {
	var v uint64
	for j := w - 1; j >= 0; j-- {
		v = v<<8 | uint64(col[i*w+j])
	}
	return v
}
