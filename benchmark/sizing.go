package main

import "pangea/internal/disk"

// sizing is every count and size of the four workloads. The ratios are the
// point — data to pool, the battery mix, clients no more than cores — and the
// absolute sizes are what fits a run on a two-core box inside the driver's
// time cap; README.md records both.
type sizing struct {
	setups    int // set-ups per run, at least (setupMedian); setup_s is their median
	minRounds int // a measured loop runs at least this many rounds …
	maxRounds int // … and, when non-zero, at most this many (smoke)
	clients   int // closed-loop clients, map writers, reduce readers

	pageSize    int64 // every set but the shuffle's and the hash buffers'
	drives      int   // drives under the two spilling pools
	drive       disk.Config
	scanThreads int

	probeIters  int // iterations of the short probes on a traced run
	probePasses int // passes of the set-walking probes

	// warm_query
	wqRows, wqDates int
	wqPool          int64
	wqWarmup        int // unmeasured battery rounds first
	wqRowscans      int // battery mix: queries of each type per round
	wqAggs          int
	wqRanges        int
	wqPoints        int

	// spill_scan
	ssRecords int
	ssPool    int64
	ssScans   int // scans per cycle

	// shuffle_agg
	saRecords    int
	saKeys       int
	saPartitions int
	saPool       int64
	saPageSize   int64
	saSmallPage  int
	saHashPage   int64
	saHashRoots  int

	// tpch_cluster
	tcScale   float64
	tcWorkers int
	tcPool    int64
}

// fullSizing is what BENCHMARK.json's command runs.
var fullSizing = sizing{
	setups: 7, minRounds: 2, clients: 2,
	pageSize: 256 << 10, drives: 2, drive: ssdModel(), scanThreads: 2,
	probeIters: 2000, probePasses: 5,

	wqRows: 1_000_000, wqDates: 2000, wqPool: 256 << 20, wqWarmup: 10,
	wqRowscans: 1, wqAggs: 8, wqRanges: 60, wqPoints: 1000,

	ssRecords: 1_000_000, ssPool: 16 << 20, ssScans: 4,

	saRecords: 640_000, saKeys: 100_000, saPartitions: 8, saPool: 32 << 20,
	saPageSize: 512 << 10, saSmallPage: 64 << 10, saHashPage: 128 << 10, saHashRoots: 8,

	tcScale: 0.05, tcWorkers: 2, tcPool: 96 << 20,
}

// smokeSizing drives every code path in a few seconds on unthrottled drives:
// what the tests run.
var smokeSizing = sizing{
	setups: 2, minRounds: 2, maxRounds: 4, clients: 2,
	pageSize: 64 << 10, drives: 2, drive: disk.Unthrottled(), scanThreads: 2,
	probeIters: 50, probePasses: 1,

	wqRows: 50_000, wqDates: 500, wqPool: 32 << 20, wqWarmup: 1,
	wqRowscans: 1, wqAggs: 2, wqRanges: 5, wqPoints: 20,

	ssRecords: 50_000, ssPool: 1 << 20, ssScans: 2,

	saRecords: 40_000, saKeys: 5_000, saPartitions: 4, saPool: 4 << 20,
	saPageSize: 256 << 10, saSmallPage: 32 << 10, saHashPage: 64 << 10, saHashRoots: 4,

	tcScale: 0.002, tcWorkers: 2, tcPool: 32 << 20,
}
