package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"pangea/internal/cluster"
	"pangea/internal/core"
	"pangea/internal/disk"
	"pangea/internal/query"
	"pangea/internal/tpch"
)

// tpch_cluster: a manager and two workers in this process, talking over
// loopback TCP, each worker with a pool the data fits in and one throttled
// drive that therefore stays idle. The TPC-H tables are loaded through the
// cluster protocol, the paper's heterogeneous replicas are built, and a
// single client runs the nine queries round after round, every result checked
// against the reference implementation. End to end through every upper layer
// — the gob-over-TCP protocol, the row query engine, the TPC-H plans, replica
// placement — while the storage engine underneath does little: a cluster or
// join-engine gain shows here, and a change inside the pool predicts no
// movement.

const clusterKey = "pangea-benchmark-key"

type tpchState struct {
	data    *tpch.Data
	bytes   int64 // data.TotalBytes()
	refs    map[string]tpch.Result
	mgr     *cluster.Manager
	workers []*cluster.Worker
	exec    *query.Executor

	loadS, replicasS float64
}

func (st *tpchState) pools() []*core.BufferPool {
	ps := make([]*core.BufferPool, len(st.workers))
	for i, w := range st.workers {
		ps[i] = w.Pool()
	}
	return ps
}

func (st *tpchState) arrays() []*disk.Array {
	as := make([]*disk.Array, len(st.workers))
	for i, w := range st.workers {
		as[i] = w.Pool().Array()
	}
	return as
}

func buildTPCH(rc *runCtx, dir string) (*tpchState, error) {
	st := &tpchState{data: tpch.Generate(rc.sz.tcScale, rc.seed), refs: make(map[string]tpch.Result)}
	st.bytes = st.data.TotalBytes()
	for _, q := range tpch.QueryNames {
		ref, err := tpch.Reference(q, st.data)
		if err != nil {
			return nil, err
		}
		st.refs[q] = ref
	}
	var err error
	if st.mgr, err = cluster.NewManager("127.0.0.1:0", clusterKey); err != nil {
		return nil, err
	}
	cl := cluster.NewClient(st.mgr.Addr(), clusterKey)
	for i := 0; i < rc.sz.tcWorkers; i++ {
		w, err := cluster.NewWorker("127.0.0.1:0", cluster.WorkerConfig{
			PrivateKey: clusterKey,
			Memory:     rc.sz.tcPool,
			DiskDir:    filepath.Join(dir, fmt.Sprintf("w%d", i)),
			Disks:      1,
			DiskConfig: rc.sz.drive,
		})
		if err != nil {
			st.teardown(rc)
			return nil, err
		}
		st.workers = append(st.workers, w)
		if _, err := cl.RegisterWorker(w.Addr()); err != nil {
			st.teardown(rc)
			return nil, err
		}
	}
	st.exec = query.NewExecutor(cl, st.workers, 1)
	st.loadS = rc.op(mainSlot, "tpch.Load", func() error { return tpch.Load(st.exec, st.data, rc.sz.pageSize) })
	st.replicasS = rc.op(mainSlot, "tpch.BuildReplicas", func() error {
		_, err := tpch.BuildReplicas(st.exec, rc.sz.pageSize)
		return err
	})
	return st, nil
}

// teardown closes the workers and the manager. Worker.Close has been seen to
// hang on its WaitGroup, so each close is a watched operation.
func (st *tpchState) teardown(rc *runCtx) {
	for i, w := range st.workers {
		rc.op(mainSlot, fmt.Sprintf("Worker.Close %d", i), w.Close)
		_ = w.Pool().Array().RemoveAll()
	}
	if st.mgr != nil {
		rc.op(mainSlot, "Manager.Close", st.mgr.Close)
	}
}

func runTPCHCluster(rc *runCtx) error {
	var loads, replicas []float64 // every set-up's, not only the last one's
	st, setupS, err := setupMedian(rc,
		func(dir string) (*tpchState, error) {
			st, err := buildTPCH(rc, dir)
			if err == nil {
				loads, replicas = append(loads, st.loadS), append(replicas, st.replicasS)
			}
			return st, err
		},
		func(st *tpchState) { st.teardown(rc) })
	if err != nil {
		return err
	}
	defer st.teardown(rc)
	if rc.failed.Load() > 0 {
		return fmt.Errorf("load or replica build failed")
	}

	sb := rc.tr.buf()
	runner := tpch.NewRunner(st.exec, 1, true)
	poolBefore, drivesBefore := snapshotPool(st.pools()...), snapshotDrives(st.arrays()...)
	perQuery := make(map[string][]float64)
	var rounds []float64
	var traced []bool
	for r, start := 0, time.Now(); rc.keepGoing(r, start); r++ {
		tsb := sb
		if !rc.tracedRound(r) {
			tsb = nil
		}
		root := tsb.begin("bench.round", 0, int64(r))
		var round float64
		results := make(map[string]tpch.Result, len(tpch.QueryNames))
		for _, q := range tpch.QueryNames {
			sp := tsb.begin("tpch."+q, root.id(), int64(r))
			d := rc.op(mainSlot, q, func() error {
				res, err := runner.Run(q)
				results[q] = res
				return err
			})
			sp.end()
			perQuery[q] = append(perQuery[q], d)
			round += d
		}
		root.end()
		rounds, traced = append(rounds, round), append(traced, tsb != nil)
		// Checked outside the timed region: the latencies above are the
		// queries' alone.
		for _, q := range tpch.QueryNames {
			if results[q] == nil {
				continue // the run itself failed and is already counted
			}
			if err := tpch.ResultsEqual(st.refs[q], results[q], 1e-9); err != nil {
				rc.fail(fmt.Errorf("round %d %s: %w", r, q, err))
			}
		}
	}

	var peak int64
	for _, p := range st.pools() {
		peak += p.PeakBytes()
	}
	drives := snapshotDrives(st.arrays()...).minus(drivesBefore)
	n := float64(len(rounds))
	userBytes := float64(st.bytes)

	rc.e2e["setup_s"] = setupS
	rc.e2e["round_p50_ms"] = median(rounds) * 1e3
	rc.e2e["io_amp"] = 1 + drives.bytes()/(userBytes*n)
	rc.e2e["pool_peak_mb"] = float64(peak) / mb
	if rc.tr == nil {
		return nil
	}

	rc.poolCounters(snapshotPool(st.pools()...).minus(poolBefore), n)
	rc.driveCounters(drives, n)
	for _, q := range tpch.QueryNames {
		rc.layer["tpch."+strings.ToLower(q)+"_p50_ms"] = median(perQuery[q]) * 1e3
	}
	rc.layer["tpch.round_p95_ms"] = percentile(rounds, 95) * 1e3
	rc.layer["tpch.load_mb_s"] = userBytes / mb / median(loads)
	rc.layer["placement.build_replicas_s"] = median(replicas)
	rc.layer["bench.rounds"] = n
	rc.layer["bench.trace_overhead_frac"] = traceOverhead(rounds, traced)
	return st.probes(rc)
}

// probes times what the rounds cannot isolate: the pool's hit path under the
// query engine, the protocol's round trip and its three bulk paths, and what
// the replicas cost in bytes.
func (st *tpchState) probes(rc *runCtx) error {
	lineitem, err := st.exec.Set(0, "lineitem")
	if err != nil {
		return err
	}
	hit, err := probeHitPath(lineitem, rc.sz.probePasses)
	if err != nil {
		return err
	}
	rc.layer["core.pin_hit_ns"] = hit.pin * 1e9 / float64(hit.pages)
	rc.layer["services.walk_ns_per_rec"] = hit.decode * 1e9 / float64(hit.records)
	liBytes := hit.records * tpch.LineitemSize // worker 0's share of lineitem

	cl, addr := st.exec.Client, st.exec.Addrs[0]
	var rtts []float64
	for i := 0; i < rc.sz.probeIters; i++ {
		t0 := time.Now()
		if _, err := cl.SetStats(addr, "lineitem"); err != nil {
			return err
		}
		rtts = append(rtts, float64(time.Since(t0).Microseconds()))
	}
	rc.layer["cluster.rpc_rtt_us"] = median(rtts)

	// AddRecords: fixed 4 MiB batches of lineitem rows into a scratch set.
	const batchBytes = 4 << 20
	var batch [][]byte
	for i, size := 0, 0; size < batchBytes; i++ {
		rec := st.data.Lineitem[i%len(st.data.Lineitem)]
		batch, size = append(batch, rec), size+len(rec)
	}
	if err := cl.CreateSetOn(addr, "probe_scratch", rc.sz.pageSize, uint8(core.WriteBack)); err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < rc.sz.probePasses; i++ {
		if err := cl.AddRecords(addr, "probe_scratch", batch); err != nil {
			return err
		}
	}
	rc.layer["cluster.add_records_mb_s"] = float64(rc.sz.probePasses) * batchBytes / mb / time.Since(t0).Seconds()
	if err := cl.DropSet(addr, "probe_scratch"); err != nil {
		return err
	}

	t0 = time.Now()
	var fetched int64
	for i := 0; i < rc.sz.probePasses; i++ {
		if err := cl.FetchSet(addr, "lineitem", func(rec []byte) error { fetched += int64(len(rec)); return nil }); err != nil {
			return err
		}
	}
	rc.layer["cluster.fetch_set_mb_s"] = float64(fetched) / mb / time.Since(t0).Seconds()

	proxy := cluster.NewDataProxy(st.workers[0], clusterKey)
	scanned := make([]int64, 1) // one slot per scan thread
	t0 = time.Now()
	for i := 0; i < rc.sz.probePasses; i++ {
		err := proxy.Scan("lineitem", len(scanned), func(thread int, rec []byte) error {
			scanned[thread] += int64(len(rec))
			return nil
		})
		if err != nil {
			return err
		}
	}
	rc.layer["cluster.proxy_scan_mb_s"] = float64(scanned[0]) / mb / time.Since(t0).Seconds()
	if want := liBytes * int64(rc.sz.probePasses); fetched != want || scanned[0] != want {
		return fmt.Errorf("probes read %d and %d lineitem bytes from worker 0, want %d", fetched, scanned[0], want)
	}

	// Replica bytes: every page of every set that is not one of the six
	// source tables.
	source := make(map[string]bool)
	for _, name := range tpch.TableNames {
		source[name] = true
	}
	var replicaBytes int64
	for _, p := range st.pools() {
		for _, set := range p.Sets() {
			if !source[set.Name()] {
				replicaBytes += set.NumPages() * set.PageSize()
			}
		}
	}
	rc.layer["placement.replica_bytes_per_user_byte"] = float64(replicaBytes) / float64(st.bytes)
	rc.layer["memory.alloc_free_ns"] = probeAllocFree(rc.sz.tcPool, rc.sz.pageSize, rc.sz.probeIters)
	rc.layer["pfs.page_rw_us"], err = probePageRW(rc.dir, rc.sz.pageSize, rc.sz.probeIters)
	return err
}
