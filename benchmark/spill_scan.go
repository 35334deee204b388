package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/services"
)

// spill_scan: one small pool over two throttled drives, and a write-back row
// set four times the pool's size that is ingested through a SeqWriter, scanned
// several times over by services.ScanSet on two threads, and dropped — again
// and again. Bound by the drive model: the evictor and the per-drive spill
// pipeline on ingest; demand loads, prefetch and the choice of victim for a
// looping sequential read on the scans. It uses the layers warm_query uses the
// opposite way — misses where that has hits, writes beside reads — so a gain
// on the hit path that costs the miss path shows here. It also stands in for
// k-means' looping pass over its points.

// addBatch is how many records one traced Add span covers: long enough to
// cost nothing, short enough that a stall behind the evictor stands out.
const addBatch = 1024

// addBatched calls add(0..n-1) in batches of addBatch with a span named name
// around each batch.
func addBatched(sb *spanBuf, parent spanID, op int64, name string, n int, add func(i int) error) error {
	for lo := 0; lo < n; lo += addBatch {
		hi := lo + addBatch
		if hi > n {
			hi = n
		}
		sp := sb.begin(name, parent, op)
		for i := lo; i < hi; i++ {
			if err := add(i); err != nil {
				sp.end()
				return err
			}
		}
		sp.end()
	}
	return nil
}

// shadowScan is services.ScanSet rebuilt from the public calls it is made of,
// with a span around each: PageIterator.Next is core.pin, WalkPage is
// services.decode (fn runs inside it), Release is core.unpin. One span buffer
// per thread.
func shadowScan(set *core.LocalitySet, bufs []*spanBuf, parent spanID, op int64, fn func(thread int, rec []byte) error) error {
	iters := services.PageIteratorsFor(set, set.PageNums(), len(bufs))
	errs := make([]error, len(iters))
	var wg sync.WaitGroup
	for t, it := range iters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sb := bufs[t]
			for {
				sp := sb.begin("core.pin", parent, op)
				p, err := it.Next()
				if p == nil {
					sp.cancel() // end of stripe, or an error: no page was pinned
					errs[t] = err
					return
				}
				sp.end()
				sp = sb.begin("services.decode", parent, op)
				err = services.WalkPage(p.Bytes(), func(rec []byte) error { return fn(t, rec) })
				sp.end()
				sp = sb.begin("core.unpin", parent, op)
				uerr := it.Release(p)
				sp.end()
				if err == nil {
					err = uerr
				}
				if err != nil {
					errs[t] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	set.SetCurrentOp(core.OpNone)
	return nil
}

type spillState struct {
	d    *spillData
	arr  *disk.Array
	pool *core.BufferPool
}

func buildSpill(rc *runCtx, dir string) (*spillState, error) {
	st := &spillState{d: generateSpill(rc.sz.ssRecords, rc.seed)}
	var err error
	if st.arr, err = disk.NewArray(dir, rc.sz.drives, rc.sz.drive); err != nil {
		return nil, err
	}
	st.pool, err = core.NewPool(core.PoolConfig{Memory: rc.sz.ssPool, Array: st.arr})
	return st, err
}

func (st *spillState) teardown() { _ = st.arr.RemoveAll() }

// spillCycle is what one ingest–scan–drop cycle measured.
type spillCycle struct {
	traced       bool
	wall, ingest float64
	scans        []float64
	drop         float64
	ingestDrives driveSnap
	scanDrives   driveSnap
	allDrives    driveSnap
	diskBytes    int64 // the set's footprint on the drives before the drop
	pages        int64
}

// scanTally is one scan thread's wrapping totals.
type scanTally struct {
	n, idSum, mixSum uint64
	_                [40]byte
}

func (st *spillState) cycle(rc *runCtx, r int, threadBufs []*spanBuf, mainBuf *spanBuf) (spillCycle, error) {
	cy := spillCycle{traced: rc.tracedRound(r)}
	sb := mainBuf
	if !cy.traced {
		sb, threadBufs = nil, nil
	}
	op := int64(r)
	start := time.Now()
	root := sb.begin("bench.round", 0, op)
	defer root.end()

	set, err := st.pool.CreateSet(core.SetSpec{Name: fmt.Sprintf("spill-%d", r), PageSize: rc.sz.pageSize})
	if err != nil {
		return cy, err
	}
	d0 := snapshotDrives(st.arr)
	cy.ingest = rc.op(mainSlot, "ingest", func() error {
		w := services.NewSeqWriter(set)
		err := addBatched(sb, root.id(), op, "services.seq_add", st.d.n, func(i int) error { return w.Add(st.d.rec(i)) })
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		return err
	})
	d1 := snapshotDrives(st.arr)
	cy.ingestDrives = d1.minus(d0)

	wantID, wantMix := st.d.truth()
	for k := 0; k < rc.sz.ssScans; k++ {
		cy.scans = append(cy.scans, rc.op(mainSlot, "scan", func() error {
			ts := make([]scanTally, rc.sz.scanThreads)
			fn := func(thread int, rec []byte) error {
				t := &ts[thread]
				t.n++
				t.idSum += binary.LittleEndian.Uint64(rec[0:8])
				t.mixSum += binary.LittleEndian.Uint64(rec[8:16])
				return nil
			}
			var err error
			if cy.traced {
				sp := sb.begin("services.scan", root.id(), op)
				err = shadowScan(set, threadBufs, sp.id(), op, fn)
				sp.end()
			} else {
				err = services.ScanSet(set, rc.sz.scanThreads, fn)
			}
			if err != nil {
				return err
			}
			var n, id, mix uint64
			for i := range ts {
				n, id, mix = n+ts[i].n, id+ts[i].idSum, mix+ts[i].mixSum
			}
			if n != uint64(st.d.n) || id != wantID || mix != wantMix {
				return fmt.Errorf("scanned %d records (id total %#x, mix total %#x), want %d (%#x, %#x)",
					n, id, mix, st.d.n, wantID, wantMix)
			}
			return nil
		}))
	}
	d2 := snapshotDrives(st.arr)
	cy.scanDrives = d2.minus(d1)
	cy.diskBytes, cy.pages = set.DiskBytes(), set.NumPages()

	cy.drop = rc.op(mainSlot, "drop", func() error {
		sp := sb.begin("core.dropset", root.id(), op)
		defer sp.end()
		return st.pool.DropSet(set)
	})
	cy.allDrives = snapshotDrives(st.arr).minus(d0)
	cy.wall = time.Since(start).Seconds()
	return cy, nil
}

func runSpillScan(rc *runCtx) error {
	st, setupS, err := setupMedian(rc,
		func(dir string) (*spillState, error) { return buildSpill(rc, dir) },
		func(st *spillState) { st.teardown() })
	if err != nil {
		return err
	}
	defer st.teardown()

	mainBuf := rc.tr.buf()
	threadBufs := make([]*spanBuf, rc.sz.scanThreads)
	for i := range threadBufs {
		threadBufs[i] = rc.tr.buf()
	}
	poolBefore := snapshotPool(st.pool)
	var cycles []spillCycle
	for r, start := 0, time.Now(); rc.keepGoing(r, start); r++ {
		cy, err := st.cycle(rc, r, threadBufs, mainBuf)
		if err != nil {
			return err
		}
		cycles = append(cycles, cy)
	}

	userBytes := float64(st.d.n * spillRecSize)
	var walls, ingests, scans, drops []float64
	var traced []bool
	var ingestDrives, scanDrives, allDrives driveSnap
	var diskBytes, pinned float64
	for _, cy := range cycles {
		walls = append(walls, cy.wall)
		ingests = append(ingests, cy.ingest)
		scans = append(scans, cy.scans...)
		drops = append(drops, cy.drop)
		traced = append(traced, cy.traced)
		ingestDrives = ingestDrives.plus(cy.ingestDrives)
		scanDrives = scanDrives.plus(cy.scanDrives)
		allDrives = allDrives.plus(cy.allDrives)
		diskBytes += float64(cy.diskBytes)
		pinned += float64(cy.pages) * float64(len(cy.scans))
	}
	n := float64(len(cycles))
	written, read := userBytes*n, userBytes*float64(len(scans))

	rc.e2e["setup_s"] = setupS
	rc.e2e["round_p50_ms"] = median(walls) * 1e3
	rc.e2e["io_amp"] = 1 + allDrives.bytes()/(written+read)
	rc.e2e["pool_peak_mb"] = float64(st.pool.PeakBytes()) / mb
	if rc.tr == nil {
		return nil
	}

	rc.poolCounters(snapshotPool(st.pool).minus(poolBefore), n)
	rc.driveCounters(allDrives, n)
	rc.layer["services.ingest_mb_s"] = userBytes / mb / median(ingests)
	rc.layer["services.scan_mb_s"] = userBytes / mb / median(scans)
	rc.layer["disk.util_ingest"] = ingestDrives.util(rc.sz.drive, sum(ingests))
	rc.layer["disk.util_scan"] = scanDrives.util(rc.sz.drive, sum(scans))
	rc.layer["pfs.space_amp"] = diskBytes / written
	rc.layer["core.reread_frac"] = ratio(float64(scanDrives.total().Reads), pinned)
	rc.layer["core.dropset_ms"] = median(drops) * 1e3
	rc.layer["bench.rounds"] = n
	rc.layer["bench.trace_overhead_frac"] = traceOverhead(walls, traced)

	spans := rc.tr.all()
	nTraced := float64(countTrue(traced))
	pins, adds, decodes := durations(spans, "core.pin"), durations(spans, "services.seq_add"), durations(spans, "services.decode")
	rc.layer["core.pin_wait_s"] = ratio(sum(pins), nTraced)
	rc.layer["core.pin_miss_p95_ms"] = percentile(pins, 95) * 1e3
	rc.layer["core.add_stall_p95_ms"] = percentile(adds, 95) * 1e3
	rc.layer["services.seq_add_ns"] = median(adds) * 1e9 / addBatch
	rc.layer["services.walk_ns_per_rec"] = ratio(sum(decodes)*1e9, float64(st.d.n*rc.sz.ssScans)*nTraced)

	rc.layer["memory.alloc_free_ns"] = probeAllocFree(rc.sz.ssPool, rc.sz.pageSize, rc.sz.probeIters)
	rc.layer["pfs.page_rw_us"], err = probePageRW(rc.dir, rc.sz.pageSize, rc.sz.probeIters)
	return err
}
