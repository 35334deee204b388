package exp

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/query"
	"pangea/internal/services"
)

// s12 reuses the s10 fact row but PERMUTES the key column: key =
// (i*stride) mod n for a stride coprime with n, so every key occurs
// exactly once and consecutive keys land on distant pages. That is the
// anti-shape for a zone map — every page's min/max spans nearly the whole
// key domain, and with a thousand-plus distinct keys per page the 256-bit
// blooms are saturated — and exactly the shape microindexes exist for: the
// index's answer for any key names the single row holding it.

const s12Stride = 7919 // prime, coprime with both workload sizes

// S12Microindex measures point lookups on a non-clustered key column
// through the predicate scan API, three ways: with the microindex
// (HintNone), with zone-map blooms alone (HintNoIndex), and unpruned
// (HintNoPrune). Both side objects are built incrementally by one writer's
// chained hooks, persisted, dropped, and reloaded from pfs before the
// sweep — the restarted-worker lifecycle. The microindex variant must pin
// strictly fewer pages than the bloom variant, and a full-range scan must
// never consult the index at all.
func S12Microindex(o Options) (*Table, error) {
	nRows := o.pick(40_000, 400_000)
	const pageSize = 128 << 10
	t := &Table{
		ID: "s12",
		Title: fmt.Sprintf("microindex point lookups on a non-clustered key (%d rows, %d KiB pages)",
			nRows, pageSize>>10),
		Header: []string{"mode", "variant", "lookups", "scan ms", "page reads", "pages visited", "matched"},
	}
	if err := s12Config(o, t, nRows, pageSize, "warm", o.pick(32, 128)); err != nil {
		return nil, err
	}
	if err := s12Config(o, t, nRows, pageSize, "cold", o.pick(4, 8)); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"the key column is a permutation of 0..n-1: every page spans nearly the whole key domain, so min/max never prunes and the per-page blooms are saturated",
		"variant=index consults the microindex (candidate pages, and the rows to test on each, up front); zonemap probes every page's bloom; noprune visits everything",
		"pages visited counts pages the scan actually evaluated rows on (zone-map checks minus skips per variant); page reads counts pages read off the drives",
		"both side objects ride one writer's chained seal hooks, are persisted to pfs, and are reloaded from the side objects before the sweep",
		"every lookup's matched count and value are cross-checked against the generator; the full-range scan must match all rows and leave the index counters untouched")
	return t, nil
}

// s12Rows generates the permuted-key fact rows; keys[i] is row i's key.
func s12Rows(n int) (rows [][]byte, keys []uint64) {
	rows = make([][]byte, n)
	keys = make([]uint64, n)
	flat := make([]byte, n*s10RowSize)
	for i := 0; i < n; i++ {
		r := flat[i*s10RowSize : (i+1)*s10RowSize]
		keys[i] = uint64((i * s12Stride) % n)
		binary.LittleEndian.PutUint64(r[0:8], keys[i])
		binary.LittleEndian.PutUint16(r[8:10], uint16(i%1000))
		binary.LittleEndian.PutUint64(r[10:18], math.Float64bits(float64(i%1000)))
		for j := 18; j < s10RowSize; j++ {
			r[j] = byte(i + j)
		}
		rows[i] = r
	}
	return rows, keys
}

// s12Config loads one deployment (building and persisting both side
// objects along the way) and sweeps the three variants over it.
func s12Config(o Options, t *Table, nRows int, pageSize int64, mode string, nLookups int) error {
	warm := mode == "warm"
	cfg := diskConfig()
	if warm {
		cfg = disk.Unthrottled()
	}
	arr, err := disk.NewArray(filepath.Join(o.Dir, "s12-"+mode), 1, cfg)
	if err != nil {
		return err
	}
	defer func() { _ = arr.RemoveAll() }()
	rows, keys := s12Rows(nRows)
	dataBytes := int64(nRows) * (s10RowSize + 8)
	mem := dataBytes * 2
	if !warm {
		mem = dataBytes / 4
	}
	if min := 8 * pageSize; mem < min {
		mem = min
	}
	bp, err := core.NewPool(core.PoolConfig{Memory: mem, Array: arr})
	if err != nil {
		return err
	}
	set, err := bp.CreateSet(core.SetSpec{
		Name: "facts", PageSize: pageSize, Durability: core.WriteThrough,
		Layout: core.LayoutColumnar, Columns: s10Widths,
	})
	if err != nil {
		return err
	}

	// One writer, both side objects on its chained hooks; persist, drop the
	// attached copies, and reload from pfs.
	zspec := services.ZoneMapSpec{Schema: s10Schema(), BloomCols: []int{0}}
	mspec := services.MicroindexSpec{Schema: s10Schema(), Cols: []int{0}}
	w := services.NewSeqWriter(set)
	zm, err := services.AttachZoneMap(w, zspec)
	if err != nil {
		return err
	}
	mi, err := services.AttachMicroindex(w, mspec)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Add(r); err != nil {
			_ = w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := zm.Save(set); err != nil {
		return err
	}
	if err := mi.Save(set); err != nil {
		return err
	}
	set.SetSideIndex(services.ZoneMapTag, nil)
	set.SetSideIndex(services.MicroindexTag, nil)
	if _, err := services.EnsureZoneMap(set, zspec); err != nil {
		return err
	}
	if _, err := services.EnsureMicroindex(set, mspec); err != nil {
		return err
	}

	// The lookup battery: nLookups keys spread evenly over the append
	// order, so their pages are spread over the whole set.
	probe := make([]int, nLookups)
	for j := range probe {
		probe[j] = j * nRows / nLookups
	}
	visited := map[string]int64{}
	for _, variant := range []string{"index", "zonemap", "noprune"} {
		if !warm {
			if err := s9Chill(bp, set, pageSize); err != nil {
				return err
			}
		}
		hint := query.HintNone
		switch variant {
		case "zonemap":
			hint = query.HintNoIndex
		case "noprune":
			hint = query.HintNoPrune
		}
		baseReads := set.Stats().LoadReads.Load()
		baseChecks, baseSkips := set.ZoneMapChecks(), set.ZoneMapSkips()
		start := time.Now()
		for _, i := range probe {
			res, err := s12Lookup(set, keys[i], hint)
			if err != nil {
				return err
			}
			if res.matched != 1 || res.sum != float64(i%1000) {
				return fmt.Errorf("s12 %s %s key %d: matched %d sum %.1f, want 1 row of value %d",
					mode, variant, keys[i], res.matched, res.sum, i%1000)
			}
		}
		elapsed := time.Since(start)
		reads := set.Stats().LoadReads.Load() - baseReads
		v := (set.ZoneMapChecks() - baseChecks) - (set.ZoneMapSkips() - baseSkips)
		if variant == "noprune" {
			v = int64(nLookups) * set.NumPages()
		}
		visited[variant] = v
		t.AddRow(mode, variant, fmt.Sprintf("%d", nLookups), ms(elapsed),
			fmt.Sprintf("%d", reads), fmt.Sprintf("%d", v), fmt.Sprintf("%d", nLookups))
	}
	if visited["index"] >= visited["zonemap"] {
		return fmt.Errorf("s12 %s: microindex visited %d pages, blooms alone %d — the index must pin strictly fewer",
			mode, visited["index"], visited["zonemap"])
	}

	// Full-range scans are unregressed: same matched count with and without
	// the index, and the unanswerable predicate never consults it.
	if warm {
		baseIdx := set.Stats().IndexChecks.Load()
		for _, hint := range []query.ScanHint{query.HintNone, query.HintNoPrune} {
			var matched int64
			var mu sync.Mutex
			spec := query.ScanSpec{Set: set, Threads: s10Threads,
				Pred: query.ColRange{Col: 0, Lo: 0, Hi: uint64(nRows)}, Hint: hint}
			err := spec.RunBatches(func(_ int, b *query.Batch) error {
				mu.Lock()
				matched += int64(b.Selected())
				mu.Unlock()
				return nil
			})
			if err != nil {
				return err
			}
			if matched != int64(nRows) {
				return fmt.Errorf("s12 %s full-range hint %d: matched %d rows, want %d", mode, hint, matched, nRows)
			}
		}
		if set.Stats().IndexChecks.Load() != baseIdx {
			return fmt.Errorf("s12 %s: a full-range scan consulted the microindex", mode)
		}
	}
	return bp.DropSet(set)
}

// s12Lookup is one point scan-filter-sum pass under the given hint.
func s12Lookup(set *core.LocalitySet, key uint64, hint query.ScanHint) (s10Result, error) {
	spec := query.ScanSpec{Set: set, Threads: 1, Pred: query.ColEq{Col: 0, V: key}, Hint: hint}
	var mu sync.Mutex
	var res s10Result
	err := spec.RunBatches(func(_ int, b *query.Batch) error {
		vals := b.Col(s10ColVal)
		var s float64
		for _, r := range b.Sel() {
			s += math.Float64frombits(binary.LittleEndian.Uint64(vals[int(r)*8:]))
		}
		mu.Lock()
		res.sum += s
		res.matched += int64(b.Selected())
		mu.Unlock()
		return nil
	})
	if err != nil {
		return s10Result{}, err
	}
	return res, nil
}
