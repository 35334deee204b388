package exp

import (
	"fmt"
	"time"

	"pangea/internal/query"
	"pangea/internal/services"
)

// s11 reuses the s10 fact row (u64 key, u16 date, f64 value, 78-byte
// payload) but writes the date column CLUSTERED: date = i*1000/n per-mil,
// monotone over the append order, so every page covers a narrow date band
// and a selective date range touches a proportional slice of the pages.
// That is the data shape zone maps exist for — s10's date = i%100 is the
// anti-shape (every page holds every date, nothing can ever be pruned).

// S11ZoneMap measures zone-map page skipping through the predicate scan
// API: the same selective scan-filter-agg at 0.1/1/10% selectivity with
// pruning on vs off (HintNoPrune), warm and cold, at 1 and 4 drives. The
// set's zone map is built incrementally by the writer's append hooks,
// persisted as a pfs side object, and reloaded from it before scanning —
// the full lifecycle. With maps on, a cold selective scan should issue
// roughly selectivity × the page reads of the unpruned scan (the skip
// counter says exactly how many pages never reached a drive); with maps
// off, or at 100% selectivity, the two paths must match.
func S11ZoneMap(o Options) (*Table, error) {
	nRows := o.pick(40_000, 600_000)
	t := &Table{
		ID: "s11",
		Title: fmt.Sprintf("zone-map page skipping: selective scans, maps on/off (%d rows, %d KiB pages)",
			nRows, factPageSize>>10),
		Header: []string{"mode", "sel permil", "maps", "drives", "scan ms", "page reads", "pages skipped", "matched"},
	}
	date := func(i int) uint16 { return uint16(int64(i) * 1000 / int64(nRows)) }
	rows := factRows(nRows, func(i int) uint64 { return uint64(i) }, date)
	if err := s11Config(o, t, rows, date, "warm", 1); err != nil {
		return nil, err
	}
	for _, drives := range []int{1, 4} {
		if err := s11Config(o, t, rows, date, "cold", drives); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"date column is clustered (monotone per-mil), so page min/max ranges are tight and selective ranges prune",
		"maps=off runs the identical predicate with HintNoPrune: same rows, no page skipping — the baseline",
		"page reads counts pages actually read off the drives (demand + prefetch); pages skipped is the zone-map counter delta",
		"the zone map is built at append time, persisted as a pfs side object, and reloaded from it before the sweep",
		"matched counts and value sums are cross-checked against the generator every scan")
	return t, nil
}

// s11Config loads one columnar deployment (building and persisting the zone
// map along the way) and sweeps selectivity × maps on/off over it.
func s11Config(o Options, t *Table, rows [][]byte, date func(int) uint16, mode string, drives int) error {
	warm := mode == "warm"
	bp, set, done, err := loadFacts(o, fmt.Sprintf("s11-%s-%dd", mode, drives), rows, drives, warm, true,
		zoneMapIndex(services.ZoneMapSpec{Schema: s10Schema()}))
	if err != nil {
		return err
	}
	defer done()

	for _, cutoff := range []uint16{1, 10, 100} {
		var matched [2]int64
		for i, hint := range []query.ScanHint{query.HintNone, query.HintNoPrune} {
			maps := []string{"on", "off"}[i]
			spec := query.ScanSpec{Set: set, Threads: s10Threads, Pred: s10Pred(cutoff), Hint: hint}
			if !warm {
				if err := s9Chill(bp, set, factPageSize); err != nil {
					return err
				}
			} else if i == 0 {
				// Prime the cache once per cutoff; both variants then time
				// pure in-memory passes.
				if _, err := sumPass(spec); err != nil {
					return err
				}
			}
			baseReads := set.Stats().LoadReads.Load()
			baseSkips := set.ZoneMapSkips()
			start := time.Now()
			res, err := sumPass(spec)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			reads := set.Stats().LoadReads.Load() - baseReads
			skips := set.ZoneMapSkips() - baseSkips

			if err := rangeTruth(res, len(rows), date, cutoff); err != nil {
				return fmt.Errorf("s11 %s c%d maps=%s: %w", mode, cutoff, maps, err)
			}
			matched[i] = res.matched
			t.AddRow(mode, fmt.Sprintf("%d", cutoff), maps,
				fmt.Sprintf("%d", drives), ms(elapsed),
				fmt.Sprintf("%d", reads), fmt.Sprintf("%d", skips), fmt.Sprintf("%d", res.matched))
		}
		if matched[0] != matched[1] {
			return fmt.Errorf("s11 %s c%d: pruned scan matched %d rows, unpruned %d", mode, cutoff, matched[0], matched[1])
		}
	}
	return bp.DropSet(set)
}
