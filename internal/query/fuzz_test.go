package query

import (
	"maps"
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

// joinKeyDomain is FuzzJoinKeys' small value domain: values every width
// holds, and values a narrow column truncates onto them (0x100 in a 1-byte
// column is 0), so a build and a probe column of different widths must match
// by the value each column holds.
var joinKeyDomain = []uint64{0, 1, 2, 0xff, 0x100, 0x101, 0xffff, 1 << 16, 1 << 32, 1<<32 + 1, math.MaxUint64}

// joinInput lays data out as a batch of (key, id) rows, one a byte: the
// byte's low four bits pick the key from joinKeyDomain, stored in a w-byte
// column (truncated to it), its top bit leaves the row out of the selection,
// and id is the row's index. It also returns each row's key as the column
// holds it.
func joinInput(data []byte, w int) (*Batch, []uint64) {
	n := len(data)
	key, ids, vals := make([]byte, n*w), make([]byte, 4*n), make([]uint64, n)
	sel := []int32{}
	for i, d := range data {
		vals[i] = joinKeyDomain[int(d&15)%len(joinKeyDomain)] & widthMax(w)
		copy(key[i*w:], le.AppendUint64(nil, vals[i])[:min(w, 8)])
		le.PutUint32(ids[4*i:], uint32(i))
		if d&0x80 == 0 {
			sel = append(sel, int32(i))
		}
	}
	return &Batch{n: n, widths: []int{w, 4}, cols: [][]byte{key, ids}, store: make([][]byte, 2), sel: sel}, vals
}

// FuzzJoinKeys is the hash join's differential test over key widths: a
// build and a probe key column each 1, 2, 4 or 8 bytes wide (the two may
// differ), under a prior selection on both sides, and a build side of a few
// pages (each side is cut at 256 rows: the inner join of two sides that
// share one key is their product). Semi, Anti, Inner and Mark/Marked agree
// with a Go map keyed by each column's unsigned value, and a key column
// wider than 8 bytes is an error in Add, Semi, Anti, Inner and Mark alike.
func FuzzJoinKeys(f *testing.F) {
	f.Add(uint8(0x00), []byte{0, 1, 2, 3, 0x84, 3}, []byte{3, 2, 0x81, 5, 0})
	f.Add(uint8(0x35), []byte{0, 3, 4, 5, 7, 8}, []byte{0, 3, 4, 5, 7, 8, 9, 10})
	f.Add(uint8(0x0b), []byte{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, []byte{0, 6, 7, 8, 0x88})
	f.Add(uint8(0x0d), []byte{4, 5, 6, 7, 8, 0, 1}, []byte{0, 1, 4, 5, 6, 8, 9, 0x87})
	f.Add(uint8(0x76), []byte{}, []byte{1, 2})
	bp := newPool(f, 1<<20)
	f.Fuzz(func(t *testing.T, widths uint8, build, probe []byte) {
		build, probe = build[:min(len(build), 256)], probe[:min(len(probe), 256)]
		bw, pw, wide := []int{1, 2, 4, 8}[widths%4], []int{1, 2, 4, 8}[widths/4%4], 9+int(widths/16)%8
		buildB, bvals := joinInput(build, bw)
		refs := map[uint64][]uint32{} // the selected build rows' ids, by key
		for _, i := range buildB.sel {
			refs[bvals[i]] = append(refs[bvals[i]], uint32(i))
		}
		probe0, pvals := joinInput(probe, pw)
		probeB := func(w int) *Batch { b, _ := joinInput(probe, w); return b }
		var wantSemi, wantAnti []int32
		wantInner, probed := map[[2]uint32]int{}, map[uint64]bool{}
		for _, i := range probe0.sel {
			if ids := refs[pvals[i]]; len(ids) > 0 {
				wantSemi = append(wantSemi, i)
				for _, id := range ids {
					wantInner[[2]uint32{uint32(i), id}]++
				}
			} else {
				wantAnti = append(wantAnti, i)
			}
			probed[pvals[i]] = true
		}

		j, err := NewJoin(bp, "tmp-join", 256, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := j.Drop(); err != nil {
				t.Fatal(err)
			}
		}()
		if wideB, _ := joinInput(build, wide); j.Add(wideB, 0, 1) == nil {
			t.Fatalf("Add over a %d-byte key column did not error", wide)
		}
		if err := j.Add(buildB, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := j.Seal(); err != nil {
			t.Fatal(err)
		}
		for _, op := range []struct {
			name string
			fn   func(*Batch, int) error
			want []int32
		}{{"Semi", j.Semi, wantSemi}, {"Anti", j.Anti, wantAnti}} {
			b := probeB(pw)
			if err := op.fn(b, 0); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(b.Sel(), op.want) {
				t.Fatalf("%s of %d-byte keys on %d-byte keys: got %v, want %v", op.name, pw, bw, b.Sel(), op.want)
			}
			if op.fn(probeB(wide), 0) == nil {
				t.Fatalf("%s over a %d-byte key column did not error", op.name, wide)
			}
		}

		var out Batch
		if err := j.Inner(probeB(pw), 0, []int{1}, &out); err != nil {
			t.Fatal(err)
		}
		gotInner := map[[2]uint32]int{}
		for row := 0; row < out.NumRows(); row++ {
			gotInner[[2]uint32{out.U32(0, row), out.U32(1, row)}]++
		}
		if !maps.Equal(gotInner, wantInner) {
			t.Fatalf("Inner of %d-byte keys on %d-byte keys: got %v, want %v", pw, bw, gotInner, wantInner)
		}
		if j.Inner(probeB(wide), 0, []int{1}, &out) == nil {
			t.Fatalf("Inner over a %d-byte key column did not error", wide)
		}

		if j.Mark(probeB(wide), 0) == nil {
			t.Fatalf("Mark over a %d-byte key column did not error", wide)
		}
		if err := j.Mark(probeB(pw), 0); err != nil {
			t.Fatal(err)
		}
		for _, marked := range []bool{true, false} {
			got, want := map[uint32]bool{}, map[uint32]bool{}
			err := j.Marked(marked, func(_ int, b *Batch) error {
				for _, i := range b.Sel() {
					got[b.U32(0, int(i))] = true
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range buildB.sel {
				if probed[bvals[i]] == marked {
					want[uint32(i)] = true
				}
			}
			if !maps.Equal(got, want) {
				t.Fatalf("Marked(%v) of %d-byte keys on %d-byte keys: got %v, want %v", marked, pw, bw, got, want)
			}
		}
	})
}
