package services

import (
	"math"
	"slices"

	"pangea/internal/core"
)

// Zone maps are per-page column summaries — min/max per fixed-width column,
// plus an optional small bloom filter per designated equality column — that
// the predicate scan consults *before* pinning a page: a page whose summary
// proves no row can match is skipped with zero I/O and zero pin traffic.
// They are one kind of side index (see sideindex.go for how they are built,
// persisted and healed). Summaries are conservative: a page without a
// trusted one is simply never pruned.

// ZoneMapTag is the pfs side-object name zone maps persist under.
const ZoneMapTag = "zmap"

// ZoneMapSpec describes what a zone map summarizes: the fixed-width column
// schema (offsets address the row-record form; for columnar sets the widths
// must match the set's column widths exactly, in order), and which columns
// additionally get a per-page bloom filter for equality pruning. Columns
// whose width is not 1/2/4/8 (payload blobs, packed strings) are carried
// for shape but never summarized — predicates on them simply never prune.
type ZoneMapSpec struct {
	Schema    []ColumnSpec
	BloomCols []int
}

// bloomBytes is the fixed per-page, per-column bloom size: 256 bits with
// two probes — at the few hundred distinct values a page holds, small
// enough to keep the whole side object a handful of KiB and selective
// enough to prune point lookups on non-clustered key columns.
const bloomBytes = 32

// bloomProbes mixes a column value into its two bloom bit positions.
func bloomProbes(v uint64) (uint32, uint32) {
	h := v * 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return uint32(h) & (bloomBytes*8 - 1), uint32(h>>32) & (bloomBytes*8 - 1)
}

func bloomSet(b []byte, v uint64) {
	p, q := bloomProbes(v)
	b[p>>3] |= 1 << (p & 7)
	b[q>>3] |= 1 << (q & 7)
}

func bloomHas(b []byte, v uint64) bool {
	p, q := bloomProbes(v)
	return b[p>>3]&(1<<(p&7)) != 0 && b[q>>3]&(1<<(q&7)) != 0
}

// A page's summary is zoneColBytes per schema column — minU, maxU (the
// unsigned interpretation), minF, maxF (the float64 interpretation of
// 8-byte columns, as bits), each a little-endian u64 at the offsets below —
// followed by bloomBytes per bloom column. A NaN minF means "no valid float
// summary", so float prune checks never fire (NaN comparisons are false);
// it is what every column starts from and what narrower columns keep.
const (
	zoneColBytes = 32
	zMinU        = 0
	zMaxU        = 8
	zMinF        = 16
	zMaxF        = 24
)

var (
	zoneMapKind = sideKind{
		name: "zone map", tag: ZoneMapTag, magic: 0x504D5A47, // "GZMP"
		version: 1, foldAll: true,
	}
	nanBits = math.Float64bits(math.NaN())
)

// ZoneMap holds the per-page summaries of one locality set.
type ZoneMap struct{ sideIndex }

// NewZoneMap builds an empty zone map for the given spec.
func NewZoneMap(spec ZoneMapSpec) (*ZoneMap, error) {
	z := &ZoneMap{}
	if err := z.init(&zoneMapKind, z, spec.Schema, spec.BloomCols); err != nil {
		return nil, err
	}
	z.blank = make([]byte, zoneColBytes*len(z.widths)+bloomBytes*len(z.cols))
	for c := range z.widths {
		le.PutUint64(z.blank[zoneColBytes*c+zMinF:], nanBits)
		le.PutUint64(z.blank[zoneColBytes*c+zMaxF:], nanBits)
	}
	return z, nil
}

// fold states column f's ranges, and its bloom if it has one, over one
// page's values.
func (z *ZoneMap) fold(sum []byte, _ int64, f foldCol, vals []uint64) {
	s := sum[zoneColBytes*f.col:][:zoneColBytes]
	le.PutUint64(s[zMinU:], slices.Min(vals))
	le.PutUint64(s[zMaxU:], slices.Max(vals))
	if f.width == 8 {
		lo, hi := floatRange(vals)
		le.PutUint64(s[zMinF:], lo)
		le.PutUint64(s[zMaxF:], hi)
	}
	if f.slot >= 0 {
		b := z.bloom(sum, f.slot)
		for _, u := range vals {
			bloomSet(b, u)
		}
	}
}

// floatRange returns the bits of the least and the greatest of vals read as
// float64s — of values that compare equal, such as −0 and +0, the first — or
// NaN bits for both if any is a NaN: a NaN is unordered, so no min/max
// statement about the page's floats can be trusted.
func floatRange(vals []uint64) (lo, hi uint64) {
	lo, hi = vals[0], vals[0]
	for _, u := range vals {
		f := math.Float64frombits(u)
		if math.IsNaN(f) {
			return nanBits, nanBits
		}
		if f < math.Float64frombits(lo) {
			lo = u
		}
		if f > math.Float64frombits(hi) {
			hi = u
		}
	}
	return lo, hi
}

// bloom returns bloom column slot's filter within a page summary.
func (z *ZoneMap) bloom(sum []byte, slot int) []byte {
	return sum[zoneColBytes*len(z.widths)+bloomBytes*slot:][:bloomBytes]
}

// A zone map folds in place and keeps nothing beyond its page summaries.
func (z *ZoneMap) seal()                                  {}
func (z *ZoneMap) appendBody(buf []byte) []byte           { return buf }
func (z *ZoneMap) decodeBody(data []byte) ([]byte, error) { return data, nil }

// colStats returns column col's zoneColBytes of page pageNum's summary and
// the whole summary, or nil when the page or the column cannot answer: no
// slot, an invalid or empty page, or a column that is not summarized.
// Caller holds z.mu.
func (z *ZoneMap) colStats(pageNum int64, col int) (s, sum []byte) {
	p := z.pages[pageNum]
	if p == nil || !p.valid || p.rows == 0 || col < 0 || col >= len(z.widths) || !summarizable(z.widths[col]) {
		return nil, nil
	}
	return p.sum[zoneColBytes*col:][:zoneColBytes], p.sum
}

// The three accessors below are the prune surface the query layer's
// predicate algebra consults (query.PruneStats). All are conservative:
// ok=false / true means "cannot exclude the page".

// ColRangeU returns column col's [min,max] under the unsigned
// interpretation for page pageNum.
func (z *ZoneMap) ColRangeU(pageNum int64, col int) (lo, hi uint64, ok bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	s, _ := z.colStats(pageNum, col)
	if s == nil {
		return 0, 0, false
	}
	return le.Uint64(s[zMinU:]), le.Uint64(s[zMaxU:]), true
}

// ColRangeF64 returns column col's [min,max] under the float64
// interpretation for page pageNum; ok is false for non-8-byte columns and
// for pages whose floats include a NaN.
func (z *ZoneMap) ColRangeF64(pageNum int64, col int) (lo, hi float64, ok bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	s, _ := z.colStats(pageNum, col)
	if s == nil || z.widths[col] != 8 {
		return 0, 0, false
	}
	lo, hi = math.Float64frombits(le.Uint64(s[zMinF:])), math.Float64frombits(le.Uint64(s[zMaxF:]))
	if math.IsNaN(lo) {
		return 0, 0, false
	}
	return lo, hi, true
}

// MayContain reports whether page pageNum may hold value v in column col:
// false only when the min/max range — or the column's bloom, if it has one —
// proves it cannot.
func (z *ZoneMap) MayContain(pageNum int64, col int, v uint64) bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	s, sum := z.colStats(pageNum, col)
	if s == nil {
		return true
	}
	if v < le.Uint64(s[zMinU:]) || v > le.Uint64(s[zMaxU:]) {
		return false
	}
	if slot, ok := z.colPos[col]; ok {
		return bloomHas(z.bloom(sum, slot), v)
	}
	return true
}

// AttachZoneMap wires page-at-a-time zone-map maintenance into a sequential
// writer and registers the map on the writer's set (see attachSideIndex).
func AttachZoneMap(w *SeqWriter, spec ZoneMapSpec) (*ZoneMap, error) {
	z, err := NewZoneMap(spec)
	if err == nil {
		err = attachSideIndex(w, z)
	}
	if err != nil {
		return nil, err
	}
	return z, nil
}

// EnsureZoneMap returns a usable zone map for the set — attached, loaded
// from the persisted side object, or rebuilt (see ensureSideIndex).
func EnsureZoneMap(set *core.LocalitySet, spec ZoneMapSpec) (*ZoneMap, error) {
	return ensureSideIndex(set, func() (*ZoneMap, error) { return NewZoneMap(spec) })
}
