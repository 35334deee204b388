package exp

import (
	"fmt"
	"path/filepath"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/query"
	"pangea/internal/services"
)

// S9Prefetch measures the asynchronous read path: cold sequential scans,
// cold looping scans (three passes over data 4× the pool), and a warm-cache
// scan, each at 1/2/4 drives with automatic read-ahead on vs off. With
// prefetch off every pin miss is one synchronous read — N drives deliver
// single-drive latency to a serial scan because only one read is ever
// outstanding. With read-ahead on, the per-drive queues keep all drives
// busy ahead of the consumer, so cold-scan throughput should approach the
// array's aggregate bandwidth; the single-drive and warm configurations
// bound the overhead of speculation where it cannot help.
func S9Prefetch(o Options) (*Table, error) {
	const pageSize = 256 << 10
	totalPages := o.pick(24, 96)
	poolPages := int64(o.pick(10, 24))
	mem := poolPages * pageSize
	t := &Table{
		ID: "s9",
		Title: fmt.Sprintf("async prefetching read path (%d KiB pages, ~%d MiB data through a %d MiB pool)",
			pageSize>>10, int64(totalPages)*pageSize>>20, mem>>20),
		Header: []string{"config", "drives", "prefetch", "scan ms", "MB/s", "speedup", "drive util",
			"issued", "hits", "wasted", "loads", "reads/pass"},
	}
	configs := []struct {
		name   string
		drives int
	}{
		{"cold-seq", 1}, {"cold-seq", 2}, {"cold-seq", 4},
		{"loop", 1}, {"loop", 2}, {"loop", 4},
		{"warm", 1}, {"warm", 4},
	}
	for _, cfg := range configs {
		var off time.Duration
		for _, prefetch := range []bool{false, true} {
			r, err := s9Run(o, cfg.name, cfg.drives, prefetch, totalPages, poolPages, mem, pageSize)
			if err != nil {
				return nil, err
			}
			speedup := "-"
			if !prefetch {
				off = r.elapsed
			} else if r.elapsed > 0 {
				speedup = fmt.Sprintf("%.2fx", off.Seconds()/r.elapsed.Seconds())
			}
			mode := "off"
			if prefetch {
				mode = "on"
			}
			mbps := float64(r.bytes) / (1 << 20) / r.elapsed.Seconds()
			t.AddRow(cfg.name, fmt.Sprintf("%d", cfg.drives), mode, ms(r.elapsed),
				fmt.Sprintf("%.0f", mbps), speedup, r.util,
				fmt.Sprintf("%d", r.issued), fmt.Sprintf("%d", r.hits),
				fmt.Sprintf("%d", r.wasted), fmt.Sprintf("%d", r.loads),
				fmt.Sprintf("%.0f of %d", r.readsPerPass, r.pages))
		}
	}
	t.Notes = append(t.Notes,
		"cold-seq: one cold sequential scan, single consumer thread; loop: three consecutive cold-start passes",
		"warm: data half the pool, primed resident before timing — prefetch must cost nothing on hits",
		"drive util: modelled device time of the scan's reads over wall × drives — a scan at 1 runs at the array's rate",
		"issued/hits/wasted are the pool's speculation counters; loads counts demand misses only",
		"reads/pass: drive reads per timed pass, of the set's page count — on loop rows, under the page count is what MRU retained across passes")
	return t, nil
}

type s9Result struct {
	elapsed                     time.Duration
	bytes                       int64
	issued, hits, wasted, loads int64
	readsPerPass                float64
	pages                       int64
	util                        string // driveUtil of the timed scans
}

// s9Run builds one pool, writes the data set write-through (so every page
// has an on-disk image and eviction of its clean pages is free), makes the
// cache state the config asks for, and times the scan.
func s9Run(o Options, cfgName string, drives int, prefetch bool, totalPages int, poolPages, mem, pageSize int64) (s9Result, error) {
	mode := "off"
	if prefetch {
		mode = "on"
	}
	tag := fmt.Sprintf("s9-%s-%dd-%s", cfgName, drives, mode)
	arr, err := disk.NewArray(filepath.Join(o.Dir, tag), drives, diskConfig())
	if err != nil {
		return s9Result{}, err
	}
	defer func() { _ = arr.RemoveAll() }()
	ra := -1 // automatic read-ahead disabled
	if prefetch {
		ra = 0 // pool default window
	}
	bp, err := core.NewPool(core.PoolConfig{Memory: mem, Array: arr, ReadAhead: ra})
	if err != nil {
		return s9Result{}, err
	}
	dataPages := totalPages
	if cfgName == "warm" {
		dataPages = int(poolPages) / 2
	}
	set, err := bp.CreateSet(core.SetSpec{Name: "data", PageSize: pageSize, Durability: core.WriteThrough})
	if err != nil {
		return s9Result{}, err
	}
	// ~4 KiB records, enough to fill the target page count.
	rec := make([]byte, 4<<10)
	for i := range rec {
		rec[i] = byte(i)
	}
	perPage := int(pageSize) / (len(rec) + 64)
	objs := make([][]byte, dataPages*perPage)
	for i := range objs {
		objs[i] = rec
	}
	if err := services.WriteAll(set, objs); err != nil {
		return s9Result{}, err
	}
	scan := func() error {
		var sink int64
		return (query.ScanSpec{Set: set, Threads: 1}).Run(func(_ int, r query.Row) error {
			sink += int64(r[0]) + int64(r[len(r)-1])
			return nil
		})
	}
	loops := 1
	switch cfgName {
	case "warm":
		// Prime the cache; the timed scans below must be all hits. One pass
		// is microseconds, so time a batch of them for a stable number.
		if err := scan(); err != nil {
			return s9Result{}, err
		}
		loops = 50
	case "loop":
		loops = 3
		fallthrough
	default:
		if err := s9Chill(bp, set, pageSize); err != nil {
			return s9Result{}, err
		}
	}
	base, before := bp.Stats().Loads.Load(), arr.Stats()
	start := time.Now()
	for l := 0; l < loops; l++ {
		if err := scan(); err != nil {
			return s9Result{}, err
		}
	}
	elapsed := time.Since(start)
	stats := bp.Stats()
	res := s9Result{
		elapsed: elapsed,
		bytes:   int64(loops) * set.NumPages() * pageSize,
		issued:  stats.PrefetchesIssued.Load(),
		hits:    stats.PrefetchHits.Load(),
		wasted:  stats.PrefetchWasted.Load(),
		loads:   stats.Loads.Load() - base,

		readsPerPass: float64(arr.Stats().Reads-before.Reads) / float64(loops),
		pages:        set.NumPages(),
		util:         driveUtil(arr, before, elapsed),
	}
	return res, bp.DropSet(set)
}

// s9Chill makes the data set fully cold: a throwaway filler set grows until
// the data set has no resident pages, then is dropped. The data pages are
// write-through clean, so the cost model reclaims them for free instead of
// spilling the filler's dirty output.
func s9Chill(bp *core.BufferPool, set *core.LocalitySet, pageSize int64) error {
	filler, err := bp.CreateSet(core.SetSpec{Name: "filler", PageSize: pageSize})
	if err != nil {
		return err
	}
	limit := int(bp.Capacity()/pageSize) * 4
	for i := 0; set.ResidentPages() > 0; i++ {
		if i > limit {
			return fmt.Errorf("s9: %d data pages still resident after %d filler pages", set.ResidentPages(), i)
		}
		p, err := filler.NewPage()
		if err != nil {
			return err
		}
		if err := filler.Unpin(p, false); err != nil {
			return err
		}
	}
	return bp.DropSet(filler)
}
