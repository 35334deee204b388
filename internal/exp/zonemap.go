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
	const pageSize = 128 << 10
	t := &Table{
		ID: "s11",
		Title: fmt.Sprintf("zone-map page skipping: selective scans, maps on/off (%d rows, %d KiB pages)",
			nRows, pageSize>>10),
		Header: []string{"mode", "sel permil", "maps", "drives", "scan ms", "page reads", "pages skipped", "matched"},
	}
	rows := s11Rows(nRows)
	if err := s11Config(o, t, rows, pageSize, "warm", 1); err != nil {
		return nil, err
	}
	for _, drives := range []int{1, 4} {
		if err := s11Config(o, t, rows, pageSize, "cold", drives); err != nil {
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

// s11Rows generates the clustered-date fact rows.
func s11Rows(n int) [][]byte {
	rows := make([][]byte, n)
	flat := make([]byte, n*s10RowSize)
	for i := 0; i < n; i++ {
		r := flat[i*s10RowSize : (i+1)*s10RowSize]
		binary.LittleEndian.PutUint64(r[0:8], uint64(i))
		binary.LittleEndian.PutUint16(r[8:10], uint16(int64(i)*1000/int64(n)))
		binary.LittleEndian.PutUint64(r[10:18], math.Float64bits(float64(i%1000)))
		for j := 18; j < s10RowSize; j++ {
			r[j] = byte(i + j)
		}
		rows[i] = r
	}
	return rows
}

// s11Config loads one columnar deployment (building and persisting the zone
// map along the way) and sweeps selectivity × maps on/off over it.
func s11Config(o Options, t *Table, rows [][]byte, pageSize int64, mode string, drives int) error {
	warm := mode == "warm"
	cfg := diskConfig()
	if warm {
		cfg = disk.Unthrottled()
	}
	arr, err := disk.NewArray(filepath.Join(o.Dir, fmt.Sprintf("s11-%s-%dd", mode, drives)), drives, cfg)
	if err != nil {
		return err
	}
	defer func() { _ = arr.RemoveAll() }()
	dataBytes := int64(len(rows)) * (s10RowSize + 8)
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

	// Load with the zone map maintained incrementally by the seal hook,
	// persist it, then detach and reload it from the side object — the
	// lifecycle a restarted worker goes through.
	zspec := services.ZoneMapSpec{Schema: s10Schema()}
	w := services.NewSeqWriter(set)
	zm, err := services.AttachZoneMap(w, zspec)
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
	set.SetSideIndex(services.ZoneMapTag, nil)
	if _, err := services.EnsureZoneMap(set, zspec); err != nil {
		return err
	}

	for _, cutoff := range []uint16{1, 10, 100} {
		var matched [2]int64
		for i, maps := range []bool{true, false} {
			if !warm {
				if err := s9Chill(bp, set, pageSize); err != nil {
					return err
				}
			} else if i == 0 {
				// Prime the cache once per cutoff; both variants then time
				// pure in-memory passes.
				if _, err := s11Scan(set, cutoff, true); err != nil {
					return err
				}
			}
			baseReads := set.Stats().LoadReads.Load()
			baseSkips := set.ZoneMapSkips()
			start := time.Now()
			res, err := s11Scan(set, cutoff, maps)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			reads := set.Stats().LoadReads.Load() - baseReads
			skips := set.ZoneMapSkips() - baseSkips

			wantMatched, wantSum := s11Truth(len(rows), cutoff)
			if res.matched != wantMatched || math.Abs(res.sum-wantSum) > 1e-6*math.Abs(wantSum)+1e-9 {
				return fmt.Errorf("s11 %s c%d maps=%v: matched %d sum %.3f, want %d / %.3f",
					mode, cutoff, maps, res.matched, res.sum, wantMatched, wantSum)
			}
			matched[i] = res.matched
			t.AddRow(mode, fmt.Sprintf("%d", cutoff), map[bool]string{true: "on", false: "off"}[maps],
				fmt.Sprintf("%d", drives), ms(elapsed),
				fmt.Sprintf("%d", reads), fmt.Sprintf("%d", skips), fmt.Sprintf("%d", res.matched))
		}
		if matched[0] != matched[1] {
			return fmt.Errorf("s11 %s c%d: pruned scan matched %d rows, unpruned %d", mode, cutoff, matched[0], matched[1])
		}
	}
	return bp.DropSet(set)
}

// s11Truth computes the generator-implied matched count and value sum for
// one cutoff.
func s11Truth(n int, cutoff uint16) (int64, float64) {
	var matched int64
	var sum float64
	for i := 0; i < n; i++ {
		if uint16(int64(i)*1000/int64(n)) < cutoff {
			matched++
			sum += float64(i % 1000)
		}
	}
	return matched, sum
}

// s11Scan is one predicate scan-filter-sum pass; maps=false runs the same
// predicate with pruning disabled.
func s11Scan(set *core.LocalitySet, cutoff uint16, maps bool) (s10Result, error) {
	hint := query.HintNone
	if !maps {
		hint = query.HintNoPrune
	}
	spec := query.ScanSpec{Set: set, Threads: s10Threads, Pred: s10Pred(cutoff), Hint: hint}
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
