package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/services"
)

// shuffle_agg: the paper's shuffle (Tab 3), hash aggregation (Tab 4) and
// mixed-set paging (Fig 10) chained into one job, repeated. Map: two writers
// Add keyed records into an 8-partition services.Shuffle twice the pool's
// size. Reduce: two readers split the partitions and ReadPartition each into
// an Int64HashBuffer of its own on a fresh set, then check every key's count
// against the generator. Job data and execution data from several locality
// sets with different attributes compete for one pool; it is write-heavy and
// allocation-heavy, and the ordering of victims across sets decides its
// drive traffic.

type shuffleState struct {
	d    *shuffleData
	arr  *disk.Array
	pool *core.BufferPool
}

func buildShuffle(rc *runCtx, dir string) (*shuffleState, error) {
	st := &shuffleState{d: generateShuffle(rc.sz.saRecords, rc.sz.saKeys, rc.sz.saPartitions, rc.seed)}
	var err error
	if st.arr, err = disk.NewArray(dir, rc.sz.drives, rc.sz.drive); err != nil {
		return nil, err
	}
	st.pool, err = core.NewPool(core.PoolConfig{Memory: rc.sz.saPool, Array: st.arr})
	return st, err
}

func (st *shuffleState) teardown() { _ = st.arr.RemoveAll() }

// shuffleJob is what one map–reduce–drop job measured.
type shuffleJob struct {
	traced           bool
	wall, mapS, redS float64
	drops            []float64
	mapDrives        driveSnap
	redDrives        driveSnap
	allDrives        driveSnap
	diskBytes, pages int64
	upsertNs         float64 // mean of the sampled Upserts
	callbackS        float64 // time inside the reduce callbacks, estimated from the samples
}

// upsertSample is how often a traced round times a reduce callback: one
// Upsert in 64.
const upsertSample = 64

// clockNs is what reading the clock twice costs: an Upsert takes about as
// long, so a timed sample is mostly clock unless this comes off.
func clockNs() float64 {
	const n = 100_000
	var sink time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sink += time.Since(t0)
	}
	_ = sink
	return float64(time.Since(start).Nanoseconds()) / n
}

// reducer is one reduce thread's tallies for the job; only a traced round
// fills the Upsert counts.
type reducer struct {
	upserts   int64
	sampled   int64
	sampledNs int64
	drops     []float64
	_         [24]byte
}

// job runs one job; clock is clockNs(), which only a traced round needs.
func (st *shuffleState) job(rc *runCtx, r int, bufs []*spanBuf, mainBuf *spanBuf, clock float64) (shuffleJob, error) {
	jb := shuffleJob{traced: rc.tracedRound(r)}
	sb := mainBuf
	if !jb.traced {
		sb, bufs = nil, make([]*spanBuf, len(bufs))
	}
	op := int64(r)
	d := st.d
	start := time.Now()
	root := sb.begin("bench.round", 0, op)
	defer root.end()

	d0 := snapshotDrives(st.arr)
	sh, err := services.NewShuffle(st.pool, fmt.Sprintf("shuf%d", r), d.parts, rc.sz.saPageSize, rc.sz.saSmallPage)
	if err != nil {
		return jb, err
	}

	// Map: each writer takes a contiguous share of the records.
	jb.mapS = rc.op(mainSlot, "map", func() error {
		sp := sb.begin("services.shuffle_map", root.id(), op)
		defer sp.end()
		err := parallel(rc.sz.clients, func(w int) error {
			out := sh.Writer()
			lo, hi := w*d.n/rc.sz.clients, (w+1)*d.n/rc.sz.clients
			err := addBatched(bufs[w], sp.id(), op, "services.shuffle_add", hi-lo, func(i int) error {
				rec := d.rec(lo + i)
				return out[shufflePartition(binary.LittleEndian.Uint64(rec), d.parts)].Add(rec)
			})
			if cerr := services.CloseWriters(out); err == nil {
				err = cerr
			}
			return err
		})
		if cerr := sh.Close(); err == nil {
			err = cerr
		}
		return err
	})
	d1 := snapshotDrives(st.arr)
	jb.mapDrives = d1.minus(d0)

	// Reduce: reader w takes partitions w, w+clients, …
	reds := make([]reducer, rc.sz.clients)
	jb.redS = rc.op(mainSlot, "reduce", func() error {
		sp := sb.begin("services.shuffle_reduce", root.id(), op)
		defer sp.end()
		return parallel(rc.sz.clients, func(w int) error {
			for p := w; p < d.parts; p += rc.sz.clients {
				if err := st.reducePartition(rc, sh, r, p, bufs[w], sp.id(), &reds[w]); err != nil {
					return fmt.Errorf("partition %d: %w", p, err)
				}
			}
			return nil
		})
	})
	d2 := snapshotDrives(st.arr)
	jb.redDrives = d2.minus(d1)
	var upserts, sampled, sampledNs int64
	for i := range reds {
		upserts += reds[i].upserts
		sampled += reds[i].sampled
		sampledNs += reds[i].sampledNs
		jb.drops = append(jb.drops, reds[i].drops...)
	}
	if jb.traced {
		if jb.upsertNs = ratio(float64(sampledNs), float64(sampled)) - clock; jb.upsertNs < 0 {
			jb.upsertNs = 0
		}
		jb.callbackS = jb.upsertNs * float64(upserts) / 1e9
	}

	for p := 0; p < d.parts; p++ {
		set := sh.Sink(p).Set()
		jb.diskBytes += set.DiskBytes()
		jb.pages += set.NumPages()
		jb.drops = append(jb.drops, rc.op(mainSlot, "drop", func() error {
			sp := sb.begin("core.dropset", root.id(), op)
			defer sp.end()
			return st.pool.DropSet(set)
		}))
	}
	jb.allDrives = snapshotDrives(st.arr).minus(d0)
	jb.wall = time.Since(start).Seconds()
	return jb, nil
}

// reducePartition aggregates one shuffle partition into a hash buffer on a
// fresh set, checks the result against the generator's per-key counts, and
// drops the set.
func (st *shuffleState) reducePartition(rc *runCtx, sh *services.Shuffle, r, p int, sb *spanBuf, parent spanID, red *reducer) error {
	op := int64(r)
	set, err := st.pool.CreateSet(core.SetSpec{Name: fmt.Sprintf("agg%d-%d", r, p), PageSize: rc.sz.saHashPage})
	if err != nil {
		return err
	}
	hb, err := services.NewInt64HashBuffer(set, rc.sz.saHashRoots, services.Sum)
	if err != nil {
		return err
	}
	sp := sb.begin("services.read_partition", parent, op)
	if sb != nil {
		err = shadowScan(sh.Sink(p).Set(), []*spanBuf{sb}, sp.id(), op, func(_ int, rec []byte) error {
			red.upserts++
			if red.upserts%upsertSample != 0 {
				return hb.Upsert(rec[0:8], 1)
			}
			t0 := time.Now()
			err := hb.Upsert(rec[0:8], 1)
			red.sampledNs += time.Since(t0).Nanoseconds()
			red.sampled++
			return err
		})
	} else {
		err = sh.ReadPartition(p, 1, func(rec []byte) error { return hb.Upsert(rec[0:8], 1) })
	}
	sp.end()
	if cerr := hb.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	sp = sb.begin("services.hash_result", parent, op)
	res, err := hb.Result()
	sp.end()
	if err != nil {
		return err
	}
	if err := st.checkPartition(p, res); err != nil {
		return err
	}
	sp = sb.begin("core.dropset", parent, op)
	t0 := time.Now()
	err = st.pool.DropSet(set)
	red.drops = append(red.drops, time.Since(t0).Seconds())
	sp.end()
	return err
}

// checkPartition compares a partition's aggregate with the generator: the
// counts add up to the records routed to it, and each key has its own count.
func (st *shuffleState) checkPartition(p int, res map[string]int64) error {
	var total int64
	for k, n := range res {
		key := binary.LittleEndian.Uint64([]byte(k))
		if key >= uint64(st.d.keys) || shufflePartition(key, st.d.parts) != p {
			return fmt.Errorf("key %d does not belong to partition %d", key, p)
		}
		if n != int64(st.d.counts[key]) {
			return fmt.Errorf("key %d counted %d times, want %d", key, n, st.d.counts[key])
		}
		total += n
	}
	if total != st.d.perPart[p] {
		return fmt.Errorf("counts total %d, want %d", total, st.d.perPart[p])
	}
	return nil
}

func runShuffleAgg(rc *runCtx) error {
	st, setupS, err := setupMedian(rc,
		func(dir string) (*shuffleState, error) { return buildShuffle(rc, dir) },
		func(st *shuffleState) { st.teardown() })
	if err != nil {
		return err
	}
	defer st.teardown()

	mainBuf := rc.tr.buf()
	bufs := make([]*spanBuf, rc.sz.clients)
	for i := range bufs {
		bufs[i] = rc.tr.buf()
	}
	var clock float64
	if rc.tr != nil {
		clock = clockNs()
	}
	poolBefore := snapshotPool(st.pool)
	var jobs []shuffleJob
	for r, start := 0, time.Now(); rc.keepGoing(r, start); r++ {
		jb, err := st.job(rc, r, bufs, mainBuf, clock)
		if err != nil {
			return err
		}
		jobs = append(jobs, jb)
	}

	userBytes := float64(st.d.n * shuffleRecSize)
	var walls, maps, reds, drops, upsertNs []float64
	var traced []bool
	var mapDrives, redDrives, allDrives driveSnap
	var diskBytes, pinned, callbackS float64
	for _, jb := range jobs {
		walls, maps, reds = append(walls, jb.wall), append(maps, jb.mapS), append(reds, jb.redS)
		drops = append(drops, jb.drops...)
		if jb.traced {
			upsertNs = append(upsertNs, jb.upsertNs)
		}
		traced = append(traced, jb.traced)
		mapDrives = mapDrives.plus(jb.mapDrives)
		redDrives = redDrives.plus(jb.redDrives)
		allDrives = allDrives.plus(jb.allDrives)
		diskBytes += float64(jb.diskBytes)
		pinned += float64(jb.pages)
		callbackS += jb.callbackS
	}
	n := float64(len(jobs))
	moved := userBytes * n // written by the maps, and read again by the reduces

	rc.e2e["setup_s"] = setupS
	rc.e2e["round_p50_ms"] = median(walls) * 1e3
	rc.e2e["io_amp"] = 1 + allDrives.bytes()/(2*moved)
	rc.e2e["pool_peak_mb"] = float64(st.pool.PeakBytes()) / mb
	if rc.tr == nil {
		return nil
	}

	rc.poolCounters(snapshotPool(st.pool).minus(poolBefore), n)
	rc.driveCounters(allDrives, n)
	rc.layer["services.ingest_mb_s"] = userBytes / mb / median(maps) // map, through Shuffle.Close
	rc.layer["services.scan_mb_s"] = userBytes / mb / median(reds)   // reduce, Result and checks included
	rc.layer["disk.util_ingest"] = mapDrives.util(rc.sz.drive, sum(maps))
	rc.layer["disk.util_scan"] = redDrives.util(rc.sz.drive, sum(reds))
	rc.layer["pfs.space_amp"] = diskBytes / moved
	rc.layer["core.reread_frac"] = ratio(float64(redDrives.total().Reads), pinned)
	rc.layer["core.dropset_ms"] = median(drops) * 1e3
	rc.layer["services.hash_upsert_ns"] = median(upsertNs)
	rc.layer["bench.rounds"] = n
	rc.layer["bench.trace_overhead_frac"] = traceOverhead(walls, traced)

	spans := rc.tr.all()
	nTraced := float64(countTrue(traced))
	pins, adds, decodes := durations(spans, "core.pin"), durations(spans, "services.shuffle_add"), durations(spans, "services.decode")
	rc.layer["core.pin_wait_s"] = ratio(sum(pins), nTraced)
	rc.layer["core.pin_miss_p95_ms"] = percentile(pins, 95) * 1e3
	rc.layer["core.add_stall_p95_ms"] = percentile(adds, 95) * 1e3
	rc.layer["services.shuffle_add_ns"] = median(adds) * 1e9 / addBatch
	// The decode spans hold the reduce callbacks; what is left once the
	// Upserts' estimated time comes off is the walk itself.
	perTraced := ratio(callbackS, nTraced)
	rc.layer["services.walk_ns_per_rec"] = ratio((ratio(sum(decodes), nTraced)-perTraced)*1e9, float64(st.d.n))
	rc.layer["services.shuffle_read_s"] = ratio(sum(durations(spans, "services.read_partition")), nTraced) - perTraced

	rc.layer["memory.alloc_free_ns"] = probeAllocFree(rc.sz.saPool, rc.sz.saPageSize, rc.sz.probeIters)
	rc.layer["pfs.page_rw_us"], err = probePageRW(rc.dir, rc.sz.saPageSize, rc.sz.probeIters)
	return err
}
