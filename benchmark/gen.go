package main

import (
	"encoding/binary"
	"math"
)

// Every input comes from these generators and a seed; the engine only ever
// sees generated records. Each generator also knows the truth its records
// imply (counts, sums, per-key tallies), which is what every operation's
// result is checked against.

// rng is splitmix64: small, fast, and the same on every Go version.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fillPad fills b with seeded bytes, eight at a time.
func (r *rng) fillPad(b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, r.next())
		b = b[8:]
	}
	if len(b) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], r.next())
		copy(b, w[:])
	}
}

// --- warm_query: the fact table ------------------------------------------------

// Fact row: key u64 | date u16 | cat u16 | val f64 | pad, 64 bytes.
const (
	factRowSize = 64
	factColKey  = 0
	factColDate = 1
	factColCat  = 2
	factColVal  = 3
	factCats    = 100  // cat = i % factCats
	factCatCut  = 10   // the rowscan and agg predicate is cat < factCatCut
	factValMod  = 1000 // val = (i + shift) % factValMod, an exact float
)

var factWidths = []int{8, 2, 2, 8, 44}

// facts is the generated table plus what is needed to answer any battery
// query in closed form. Row i has
//
//	key  = (i*stride + offset) mod n   unique, and consecutive keys far apart
//	date = i / rowsPerDate             clustered: ascending with i
//	cat  = i mod 100
//	val  = (i + shift) mod 1000
//
// so a date window is a contiguous run of i, and every sum is a sum of small
// integers, exact in float64 whatever order the engine adds them in.
type facts struct {
	n           int
	rowsPerDate int
	stride      uint64
	offset      uint64
	shift       int
	flat        []byte // n rows of factRowSize bytes

	catCount int64   // rows with cat < factCatCut
	catSum   float64 // their val total
}

// factStrides are primes far from any power of two; generateFacts takes the
// first the seed points at that is coprime with n.
var factStrides = []uint64{7919, 104729, 15485863, 32452843, 49979687, 67867967, 86028121}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func generateFacts(n, dates int, seed uint64) *facts {
	r := newRng(seed ^ 0xFAC75)
	f := &facts{n: n, rowsPerDate: (n + dates - 1) / dates, flat: make([]byte, n*factRowSize)}
	for k := r.intn(len(factStrides)); ; k++ {
		f.stride = factStrides[k%len(factStrides)]
		if gcd(f.stride, uint64(n)) == 1 {
			break
		}
	}
	f.offset = r.next() % uint64(n)
	f.shift = r.intn(factValMod)
	for i := 0; i < n; i++ {
		row := f.flat[i*factRowSize : (i+1)*factRowSize]
		binary.LittleEndian.PutUint64(row[0:8], f.key(i))
		binary.LittleEndian.PutUint16(row[8:10], f.date(i))
		binary.LittleEndian.PutUint16(row[10:12], uint16(i%factCats))
		binary.LittleEndian.PutUint64(row[12:20], math.Float64bits(f.val(i)))
		r.fillPad(row[20:])
		if i%factCats < factCatCut {
			f.catCount++
			f.catSum += f.val(i)
		}
	}
	return f
}

func (f *facts) row(i int) []byte { return f.flat[i*factRowSize : (i+1)*factRowSize] }
func (f *facts) key(i int) uint64 { return (uint64(i)*f.stride + f.offset) % uint64(f.n) }
func (f *facts) date(i int) uint16 {
	return uint16(i / f.rowsPerDate)
}
func (f *facts) val(i int) float64 { return float64((i + f.shift) % factValMod) }
func (f *facts) numDates() int     { return (f.n + f.rowsPerDate - 1) / f.rowsPerDate }

// valPrefix is the total of val over rows [0, x).
func (f *facts) valPrefix(x int) float64 {
	const period = factValMod * (factValMod - 1) / 2 // one full cycle of residues
	full, rest := x/factValMod, x%factValMod
	t := float64(full) * period
	for i := x - rest; i < x; i++ {
		t += f.val(i)
	}
	return t
}

// dateWindow answers "rows with lo <= date < hi": how many, and their val
// total.
func (f *facts) dateWindow(lo, hi int) (count int64, total float64) {
	a, b := lo*f.rowsPerDate, hi*f.rowsPerDate
	if a > f.n {
		a = f.n
	}
	if b > f.n {
		b = f.n
	}
	return int64(b - a), f.valPrefix(b) - f.valPrefix(a)
}

// --- spill_scan: sequential records ---------------------------------------------

// Spill record: id u64 | mix u64 | pad, 64 bytes; id = base + i and
// mix = id * spillMix, both wrapping, so the totals of a complete scan have a
// closed form in uint64 arithmetic.
const (
	spillRecSize = 64
	spillMix     = 0x9E3779B97F4A7C15
)

type spillData struct {
	n    int
	base uint64
	flat []byte
}

func generateSpill(n int, seed uint64) *spillData {
	r := newRng(seed ^ 0x5B111)
	d := &spillData{n: n, base: r.next(), flat: make([]byte, n*spillRecSize)}
	for i := 0; i < n; i++ {
		rec := d.flat[i*spillRecSize : (i+1)*spillRecSize]
		id := d.base + uint64(i)
		binary.LittleEndian.PutUint64(rec[0:8], id)
		binary.LittleEndian.PutUint64(rec[8:16], id*spillMix)
		r.fillPad(rec[16:])
	}
	return d
}

func (d *spillData) rec(i int) []byte { return d.flat[i*spillRecSize : (i+1)*spillRecSize] }

// truth is the wrapping total of id, and of mix, over the whole set.
func (d *spillData) truth() (idSum, mixSum uint64) {
	n := uint64(d.n)
	// n(n-1)/2: halve the even factor first, so wrap-around cannot eat the
	// bit the division drops.
	var tri uint64
	if n%2 == 0 {
		tri = (n / 2) * (n - 1)
	} else {
		tri = n * ((n - 1) / 2)
	}
	idSum = n*d.base + tri
	return idSum, idSum * spillMix
}

// --- shuffle_agg: keyed records -------------------------------------------------

// Shuffle record: key u64 | seq u64 | pad, 100 bytes; key is a seeded draw
// from [0, keys).
const shuffleRecSize = 100

type shuffleData struct {
	n       int
	keys    int
	parts   int
	flat    []byte
	counts  []int32 // records per key
	perPart []int64 // records per partition
}

// shufflePartition is the benchmark's own partitioner (the Shuffle service
// takes the partition from its caller). The multiply spreads sequential keys.
func shufflePartition(key uint64, parts int) int {
	return int((key * 0x9E3779B97F4A7C15 >> 32) % uint64(parts))
}

func generateShuffle(n, keys, parts int, seed uint64) *shuffleData {
	r := newRng(seed ^ 0x5A0FF1E)
	d := &shuffleData{
		n: n, keys: keys, parts: parts,
		flat:    make([]byte, n*shuffleRecSize),
		counts:  make([]int32, keys),
		perPart: make([]int64, parts),
	}
	for i := 0; i < n; i++ {
		rec := d.flat[i*shuffleRecSize : (i+1)*shuffleRecSize]
		key := uint64(r.intn(keys))
		binary.LittleEndian.PutUint64(rec[0:8], key)
		binary.LittleEndian.PutUint64(rec[8:16], uint64(i))
		r.fillPad(rec[16:])
		d.counts[key]++
		d.perPart[shufflePartition(key, parts)]++
	}
	return d
}

func (d *shuffleData) rec(i int) []byte { return d.flat[i*shuffleRecSize : (i+1)*shuffleRecSize] }
