package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json at the
// repository root repeats these tables for the driver; TestRegistryMatchesJSON
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd lists the metrics a user of the system sees. Every workload emits
// every one of them (the driver compares each metric on each workload), so
// each is defined in terms all four workloads have: a set-up, a round, drives
// and a pool. README.md maps each definition onto each workload. None can be
// zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_p50_ms", "ms", "lower", 0.25},
	{"io_amp", "ratio", "lower", 0.03},
	{"pool_peak_mb", "MB", "lower", 0.05},
}

// perLayer lists the traced run's metrics, prefixed by the module they
// measure. A metric that has no meaning on a workload reads 0 there; for the
// miss-path counters on the two workloads that fit memory, 0 is the expected
// value and anything else is a finding.
var perLayer = []metricDef{
	{"memory.alloc_free_ns", "ns", "lower", 0},

	{"core.pin_hit_ns", "ns", "lower", 0},
	{"core.pin_wait_s", "s/round", "lower", 0},
	{"core.pin_miss_p95_ms", "ms", "lower", 0},
	{"core.add_stall_p95_ms", "ms", "lower", 0},
	{"core.evictions", "1/round", "lower", 0},
	{"core.spills", "1/round", "lower", 0},
	{"core.loads", "1/round", "lower", 0},
	{"core.flush_writes", "1/round", "lower", 0},
	{"core.prefetch_issued", "1/round", "lower", 0},
	{"core.prefetch_hit_ratio", "ratio", "higher", 0},
	{"core.prefetch_wasted", "1/round", "lower", 0},
	{"core.reread_frac", "ratio", "lower", 0},
	{"core.dropset_ms", "ms", "lower", 0},

	{"disk.reads", "1/round", "lower", 0},
	{"disk.writes", "1/round", "lower", 0},
	{"disk.bytes_read", "B/round", "lower", 0},
	{"disk.bytes_written", "B/round", "lower", 0},
	{"disk.util_ingest", "ratio", "higher", 0},
	{"disk.util_scan", "ratio", "higher", 0},
	{"disk.drive_imbalance", "ratio", "lower", 0},
	{"pfs.space_amp", "ratio", "lower", 0},
	{"pfs.page_rw_us", "us", "lower", 0},

	{"services.ingest_mb_s", "MB/s", "higher", 0},
	{"services.scan_mb_s", "MB/s", "higher", 0},
	{"services.seq_add_ns", "ns", "lower", 0},
	{"services.index_add_ns", "ns", "lower", 0},
	{"services.walk_ns_per_rec", "ns", "lower", 0},
	{"services.columnar_open_ns", "ns", "lower", 0},
	{"services.shuffle_add_ns", "ns", "lower", 0},
	{"services.shuffle_read_s", "s/round", "lower", 0},
	{"services.hash_upsert_ns", "ns", "lower", 0},

	{"query.point_p50_ms", "ms", "lower", 0},
	{"query.range_p50_ms", "ms", "lower", 0},
	{"query.agg_p50_ms", "ms", "lower", 0},
	{"query.rowscan_p50_ms", "ms", "lower", 0},
	{"query.point_p99_ms", "ms", "lower", 0},
	{"query.range_p95_ms", "ms", "lower", 0},
	{"query.agg_p95_ms", "ms", "lower", 0},
	{"query.rowscan_p95_ms", "ms", "lower", 0},
	{"query.point_pages_per_lookup", "pages", "lower", 0},
	{"query.range_pages_kept_frac", "ratio", "lower", 0},
	{"query.agg_ns_per_row", "ns", "lower", 0},
	{"query.rowscan_ns_per_row", "ns", "lower", 0},
	{"query.rowscan_self_frac", "ratio", "lower", 0},

	{"tpch.q01_p50_ms", "ms", "lower", 0},
	{"tpch.q02_p50_ms", "ms", "lower", 0},
	{"tpch.q04_p50_ms", "ms", "lower", 0},
	{"tpch.q06_p50_ms", "ms", "lower", 0},
	{"tpch.q12_p50_ms", "ms", "lower", 0},
	{"tpch.q13_p50_ms", "ms", "lower", 0},
	{"tpch.q14_p50_ms", "ms", "lower", 0},
	{"tpch.q17_p50_ms", "ms", "lower", 0},
	{"tpch.q22_p50_ms", "ms", "lower", 0},
	{"tpch.round_p95_ms", "ms", "lower", 0},
	{"tpch.load_mb_s", "MB/s", "higher", 0},

	{"cluster.rpc_rtt_us", "us", "lower", 0},
	{"cluster.add_records_mb_s", "MB/s", "higher", 0},
	{"cluster.fetch_set_mb_s", "MB/s", "higher", 0},
	{"cluster.proxy_scan_mb_s", "MB/s", "higher", 0},

	{"placement.build_replicas_s", "s", "lower", 0},
	{"placement.replica_bytes_per_user_byte", "ratio", "lower", 0},

	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.unattributed_frac", "ratio", "lower", 0},
	{"bench.spans", "count", "lower", 0},
	{"bench.rounds", "count", "higher", 0},
}

// workloadNames is the fixed set, in the order `-workload all` runs them.
var workloadNames = []string{"warm_query", "spill_scan", "shuffle_agg", "tpch_cluster"}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs; an
// empty sample has percentile 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median averages the two middle values of an even-sized sample, unlike
// percentile(xs, 50), so that a two-element sample reads as its midpoint.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method), which
// is what the acceptance procedure computes spreads from. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0: a per-layer ratio whose denominator never
// moved (no prefetch issued, no page pinned) reads as 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
