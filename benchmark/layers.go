package main

import (
	"path/filepath"
	"sync"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/memory"
	"pangea/internal/pfs"
	"pangea/internal/services"
)

// Per-layer numbers that come from the engine's public counters, read before
// and after a measured loop, and from short probes of public functions the
// workloads cannot isolate.

// poolSnap is the counters of core.PoolStats the ladder reports, summed over
// the run's pools.
type poolSnap struct {
	evictions, spills, loads, flushWrites        int64
	prefetchIssued, prefetchHits, prefetchWasted int64
}

func snapshotPool(pools ...*core.BufferPool) poolSnap {
	var s poolSnap
	for _, p := range pools {
		st := p.Stats()
		s.evictions += st.Evictions.Load()
		s.spills += st.Spills.Load()
		s.loads += st.Loads.Load()
		s.flushWrites += st.FlushWrites.Load()
		s.prefetchIssued += st.PrefetchesIssued.Load()
		s.prefetchHits += st.PrefetchHits.Load()
		s.prefetchWasted += st.PrefetchWasted.Load()
	}
	return s
}

func (a poolSnap) minus(b poolSnap) poolSnap {
	return poolSnap{
		evictions: a.evictions - b.evictions, spills: a.spills - b.spills,
		loads: a.loads - b.loads, flushWrites: a.flushWrites - b.flushWrites,
		prefetchIssued: a.prefetchIssued - b.prefetchIssued,
		prefetchHits:   a.prefetchHits - b.prefetchHits,
		prefetchWasted: a.prefetchWasted - b.prefetchWasted,
	}
}

// poolCounters reports the pool counters a measured loop of `rounds` rounds
// moved, per round, so that runs of different length compare.
func (rc *runCtx) poolCounters(d poolSnap, rounds float64) {
	rc.layer["core.evictions"] = ratio(float64(d.evictions), rounds)
	rc.layer["core.spills"] = ratio(float64(d.spills), rounds)
	rc.layer["core.loads"] = ratio(float64(d.loads), rounds)
	rc.layer["core.flush_writes"] = ratio(float64(d.flushWrites), rounds)
	rc.layer["core.prefetch_issued"] = ratio(float64(d.prefetchIssued), rounds)
	rc.layer["core.prefetch_wasted"] = ratio(float64(d.prefetchWasted), rounds)
	rc.layer["core.prefetch_hit_ratio"] = ratio(float64(d.prefetchHits), float64(d.prefetchIssued))
}

// busySeconds is the time the model says a drive spends on ops operations
// moving the given bytes: what the drives' utilisation is measured against.
func busySeconds(cfg disk.Config, st disk.Stats) float64 {
	t := float64(st.Reads+st.Writes) * cfg.SeekLatency.Seconds()
	if cfg.ReadMBps > 0 {
		t += float64(st.BytesRead) / (cfg.ReadMBps * (1 << 20))
	}
	if cfg.WriteMBps > 0 {
		t += float64(st.BytesWritten) / (cfg.WriteMBps * (1 << 20))
	}
	return t
}

func statsDelta(after, before disk.Stats) disk.Stats {
	return disk.Stats{
		Reads:        after.Reads - before.Reads,
		Writes:       after.Writes - before.Writes,
		BytesRead:    after.BytesRead - before.BytesRead,
		BytesWritten: after.BytesWritten - before.BytesWritten,
	}
}

func statsSum(a, b disk.Stats) disk.Stats {
	return disk.Stats{
		Reads:        a.Reads + b.Reads,
		Writes:       a.Writes + b.Writes,
		BytesRead:    a.BytesRead + b.BytesRead,
		BytesWritten: a.BytesWritten + b.BytesWritten,
	}
}

// driveSnap is every drive's traffic counters at one instant.
type driveSnap []disk.Stats

func snapshotDrives(arrays ...*disk.Array) driveSnap {
	var s driveSnap
	for _, a := range arrays {
		s = append(s, a.PerDriveStats()...)
	}
	return s
}

func (a driveSnap) minus(b driveSnap) driveSnap {
	d := make(driveSnap, len(a))
	for i := range a {
		d[i] = statsDelta(a[i], b[i])
	}
	return d
}

func (a driveSnap) plus(b driveSnap) driveSnap {
	if a == nil {
		return b
	}
	d := make(driveSnap, len(a))
	for i := range a {
		d[i] = statsSum(a[i], b[i])
	}
	return d
}

func (a driveSnap) total() disk.Stats {
	var t disk.Stats
	for _, s := range a {
		t = statsSum(t, s)
	}
	return t
}

func (a driveSnap) bytes() float64 {
	t := a.total()
	return float64(t.BytesRead + t.BytesWritten)
}

// util is the share of wall × drives that the drive model says the drives
// were busy: near 1, only moving fewer bytes can help; well below 1, more
// overlap can.
func (a driveSnap) util(cfg disk.Config, wall float64) float64 {
	return ratio(busySeconds(cfg, a.total()), wall*float64(len(a)))
}

// driveCounters reports the drive traffic of a measured loop, per round, and
// how evenly it fell across the drives.
func (rc *runCtx) driveCounters(d driveSnap, rounds float64) {
	t := d.total()
	rc.layer["disk.reads"] = ratio(float64(t.Reads), rounds)
	rc.layer["disk.writes"] = ratio(float64(t.Writes), rounds)
	rc.layer["disk.bytes_read"] = ratio(float64(t.BytesRead), rounds)
	rc.layer["disk.bytes_written"] = ratio(float64(t.BytesWritten), rounds)
	var most float64
	for _, s := range d {
		if b := float64(s.BytesRead + s.BytesWritten); b > most {
			most = b
		}
	}
	rc.layer["disk.drive_imbalance"] = ratio(most, d.bytes()/float64(len(d)))
}

// probeAllocFree times Alloc+Free pairs of one page size on a fresh sharded
// allocator the size of the workload's pool, from two goroutines at once, and
// returns the mean nanoseconds per pair.
func probeAllocFree(poolBytes, pageSize int64, iters int) float64 {
	alloc := memory.NewShardedTLSF(memory.NewArena(poolBytes), 0)
	const goroutines = 2
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				off, err := alloc.Alloc(pageSize)
				if err != nil {
					return // an empty arena this size always has a free page
				}
				alloc.Free(off)
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// probePageRW times WritePage+ReadPage of one page on an unthrottled drive
// and returns the mean microseconds per pair: the file layer's own cost,
// without the drive model.
func probePageRW(dir string, pageSize int64, iters int) (float64, error) {
	arr, err := disk.NewArray(filepath.Join(dir, "probe"), 1, disk.Unthrottled())
	if err != nil {
		return 0, err
	}
	defer arr.RemoveAll()
	pf, err := pfs.Create(arr, "probe", pageSize)
	if err != nil {
		return 0, err
	}
	defer pf.Remove()
	buf := make([]byte, pageSize)
	const pages = 16 // rewritten in turn, so the file stays small
	start := time.Now()
	for i := 0; i < iters; i++ {
		num := int64(i % pages)
		if err := pf.WritePage(num, buf); err != nil {
			return 0, err
		}
		if err := pf.ReadPage(num, buf); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(iters), nil
}

// hitPathProbe is what one pass over a resident set costs below the query
// layer, in seconds: pinning and unpinning its pages, and decoding them. Each
// is the median over the probe's passes, since a pass that shares the cores
// with a garbage collection takes twice as long.
type hitPathProbe struct {
	pages, records int64 // per pass
	pin, decode    float64
}

// probeHitPath walks a resident row-readable set `passes` times the way a
// scan does — Next, WalkPage, Release — with an empty callback, timing the
// pool calls apart from the decode.
func probeHitPath(set *core.LocalitySet, passes int) (hitPathProbe, error) {
	var pr hitPathProbe
	var pins, decodes []float64
	for k := 0; k < passes; k++ {
		var pin, decode time.Duration
		pr.pages, pr.records = 0, 0
		it := services.PageIteratorsFor(set, set.PageNums(), 1)[0]
		for {
			t0 := time.Now()
			p, err := it.Next()
			if err != nil {
				return pr, err
			}
			if p == nil {
				break
			}
			t1 := time.Now()
			err = services.WalkPage(p.Bytes(), func([]byte) error { pr.records++; return nil })
			t2 := time.Now()
			if rerr := it.Release(p); err == nil {
				err = rerr
			}
			if err != nil {
				return pr, err
			}
			pr.pages++
			pin += t1.Sub(t0) + time.Since(t2)
			decode += t2.Sub(t1)
		}
		pins, decodes = append(pins, pin.Seconds()), append(decodes, decode.Seconds())
	}
	set.SetCurrentOp(core.OpNone)
	pr.pin, pr.decode = median(pins), median(decodes)
	return pr, nil
}

// probeColumnarOpen returns the nanoseconds OpenColumnarPage takes on a page
// of a resident columnar set: the median over the probe's passes of the mean
// over the set's pages.
func probeColumnarOpen(set *core.LocalitySet, passes int) (float64, error) {
	const reps = 32 // opens per clock reading: one open is no longer than the reading
	var perOpen []float64
	for k := 0; k < passes; k++ {
		var pages int64
		var spent time.Duration
		it := services.PageIteratorsFor(set, set.PageNums(), 1)[0]
		for {
			p, err := it.Next()
			if err != nil {
				return 0, err
			}
			if p == nil {
				break
			}
			t0 := time.Now()
			for i := 0; i < reps && err == nil; i++ {
				_, err = services.OpenColumnarPage(p.Bytes())
			}
			spent += time.Since(t0)
			if rerr := it.Release(p); err == nil {
				err = rerr
			}
			if err != nil {
				return 0, err
			}
			pages++
		}
		perOpen = append(perOpen, ratio(float64(spent.Nanoseconds()), float64(pages*reps)))
	}
	set.SetCurrentOp(core.OpNone)
	return median(perOpen), nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
