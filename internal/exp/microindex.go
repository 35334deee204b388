package exp

import (
	"fmt"
	"time"

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
// through the predicate scan API, three ways: with both side indexes
// attached, with the microindex detached (zone-map blooms alone), and with
// both detached (unpruned). Both side objects are built incrementally by one
// writer, persisted, dropped, and reloaded from pfs before the
// sweep — the restarted-worker lifecycle. The microindex variant must pin
// strictly fewer pages than the bloom variant, and a full-range scan must
// never consult the index at all.
func S12Microindex(o Options) (*Table, error) {
	nRows := o.pick(40_000, 400_000)
	t := &Table{
		ID: "s12",
		Title: fmt.Sprintf("microindex point lookups on a non-clustered key (%d rows, %d KiB pages)",
			nRows, factPageSize>>10),
		Header: []string{"mode", "variant", "lookups", "scan ms", "page reads", "pages visited", "matched"},
	}
	if err := s12Config(o, t, nRows, "warm", o.pick(32, 128)); err != nil {
		return nil, err
	}
	if err := s12Config(o, t, nRows, "cold", o.pick(4, 8)); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"the key column is a permutation of 0..n-1: every page spans nearly the whole key domain, so min/max never prunes and the per-page blooms are saturated",
		"variant=index consults the microindex (candidate pages, and the rows to test on each, up front); zonemap probes every page's bloom; noprune visits everything",
		"pages visited counts pages the scan actually evaluated rows on (zone-map checks minus skips per variant); page reads counts pages read off the drives",
		"both side objects ride one writer, are persisted to pfs, and are reloaded from the side objects before the sweep",
		"every lookup's matched count and value are cross-checked against the generator; the full-range scan must match all rows and leave the index counters untouched")
	return t, nil
}

// s12Detached names, for each variant, the side indexes its scans run
// without.
var s12Detached = map[string][]string{
	"zonemap": {services.MicroindexTag},
	"noprune": {services.MicroindexTag, services.ZoneMapTag},
}

// s12Key is row i's key in an n-row table.
func s12Key(i, n int) uint64 { return uint64((i * s12Stride) % n) }

// s12Config loads one deployment (building and persisting both side
// objects along the way) and sweeps the three variants over it.
func s12Config(o Options, t *Table, nRows int, mode string, nLookups int) error {
	warm := mode == "warm"
	rows := factRows(nRows, func(i int) uint64 { return s12Key(i, nRows) }, func(i int) uint16 { return uint16(i % 1000) })
	bp, set, done, err := loadFacts(o, "s12-"+mode, rows, 1, warm, true,
		zoneMapIndex(services.ZoneMapSpec{Schema: s10Schema(), BloomCols: []int{0}}),
		microindexIndex(services.MicroindexSpec{Schema: s10Schema(), Cols: []int{0}}))
	if err != nil {
		return err
	}
	defer done()

	// The lookup battery: nLookups keys spread evenly over the append
	// order, so their pages are spread over the whole set.
	probe := make([]int, nLookups)
	for j := range probe {
		probe[j] = j * nRows / nLookups
	}
	visited := map[string]int64{}
	for _, variant := range []string{"index", "zonemap", "noprune"} {
		if !warm {
			if err := s9Chill(bp, set, factPageSize); err != nil {
				return err
			}
		}
		restore := detach(set, s12Detached[variant]...)
		baseReads := set.Stats().LoadReads.Load()
		baseChecks, baseSkips := set.ZoneMapChecks(), set.ZoneMapSkips()
		start := time.Now()
		for _, i := range probe {
			res, err := sumPass(query.ScanSpec{Set: set, Threads: 1, Pred: query.ColEq{Col: 0, V: s12Key(i, nRows)}})
			if err != nil {
				return err
			}
			if res.matched != 1 || res.sum != float64(i%1000) {
				return fmt.Errorf("s12 %s %s key %d: matched %d sum %.1f, want 1 row of value %d",
					mode, variant, s12Key(i, nRows), res.matched, res.sum, i%1000)
			}
		}
		elapsed := time.Since(start)
		restore()
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
		for _, variant := range []string{"index", "noprune"} {
			restore := detach(set, s12Detached[variant]...)
			res, err := sumPass(query.ScanSpec{Set: set, Threads: s10Threads,
				Pred: query.ColRange{Col: 0, Lo: 0, Hi: uint64(nRows)}})
			restore()
			if err != nil {
				return err
			}
			if res.matched != int64(nRows) {
				return fmt.Errorf("s12 %s full-range %s: matched %d rows, want %d", mode, variant, res.matched, nRows)
			}
		}
		if set.Stats().IndexChecks.Load() != baseIdx {
			return fmt.Errorf("s12 %s: a full-range scan consulted the microindex", mode)
		}
	}
	return bp.DropSet(set)
}
