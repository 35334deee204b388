package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileMedianQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10, shuffled
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(1,2,3) = %v, want 2", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("an empty sample must read 0")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if xs[0] != 9 {
		t.Error("the helpers must not reorder their input")
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a, b, c := generateFacts(5000, 50, 7), generateFacts(5000, 50, 7), generateFacts(5000, 50, 8)
	if !bytes.Equal(a.flat, b.flat) {
		t.Error("facts: same seed, different bytes")
	}
	if bytes.Equal(a.flat, c.flat) {
		t.Error("facts: different seeds, same bytes")
	}
	sa, sb, sc := generateSpill(3000, 7), generateSpill(3000, 7), generateSpill(3000, 8)
	if !bytes.Equal(sa.flat, sb.flat) || bytes.Equal(sa.flat, sc.flat) {
		t.Error("spill records do not follow the seed")
	}
	ha, hb, hc := generateShuffle(3000, 100, 4, 7), generateShuffle(3000, 100, 4, 7), generateShuffle(3000, 100, 4, 8)
	if !bytes.Equal(ha.flat, hb.flat) || bytes.Equal(ha.flat, hc.flat) {
		t.Error("shuffle records do not follow the seed")
	}
}

// The generators' closed forms must agree with what is in the bytes.
func TestGeneratorTruth(t *testing.T) {
	f := generateFacts(12_345, 100, 3)
	seen := make(map[uint64]bool, f.n)
	var catN int64
	var catSum, all float64
	for i := 0; i < f.n; i++ {
		if seen[f.key(i)] {
			t.Fatalf("key %d repeats at row %d", f.key(i), i)
		}
		seen[f.key(i)] = true
		if rowVal(f.row(i)) != f.val(i) {
			t.Fatalf("row %d holds val %v, want %v", i, rowVal(f.row(i)), f.val(i))
		}
		all += f.val(i)
		if i%factCats < factCatCut {
			catN++
			catSum += f.val(i)
		}
	}
	if catN != f.catCount || catSum != f.catSum {
		t.Errorf("cat truth %d/%v, want %d/%v", f.catCount, f.catSum, catN, catSum)
	}
	if n, s := f.dateWindow(0, f.numDates()); n != int64(f.n) || s != all {
		t.Errorf("whole-table window = %d/%v, want %d/%v", n, s, f.n, all)
	}
	lo, hi := 17, 23
	var wn int64
	var ws float64
	for i := 0; i < f.n; i++ {
		if d := int(f.date(i)); d >= lo && d < hi {
			wn++
			ws += f.val(i)
		}
	}
	if n, s := f.dateWindow(lo, hi); n != wn || s != ws {
		t.Errorf("window [%d,%d) = %d/%v, want %d/%v", lo, hi, n, s, wn, ws)
	}

	for _, n := range []int{1000, 1001} { // both parities of the triangular number
		d := generateSpill(n, 5)
		var id, mix uint64
		for i := 0; i < d.n; i++ {
			id += d.base + uint64(i)
			mix += (d.base + uint64(i)) * spillMix
		}
		if gi, gm := d.truth(); gi != id || gm != mix {
			t.Errorf("spill truth(%d) = %#x/%#x, want %#x/%#x", n, gi, gm, id, mix)
		}
	}

	h := generateShuffle(5000, 300, 4, 9)
	var total int64
	for _, c := range h.perPart {
		total += c
	}
	if total != int64(h.n) {
		t.Errorf("per-partition counts total %d, want %d", total, h.n)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root 0..100
	//   a 10..40            (one child: 20..30)
	//   b 30..60, c 50..70  (siblings on two threads, overlapping 50..60)
	//   d 90..120           (runs past its parent: clipped to 90..100)
	spans := []span{
		{ID: 1, Name: "bench.round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "services.scan", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "core.pin", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "core.pin", Start: 30, End: 60},
		{ID: 5, Parent: 1, Name: "services.decode", Start: 50, End: 70},
		{ID: 6, Parent: 1, Name: "core.unpin", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	// root's children cover 10..70 and 90..100: 70 of its 100.
	want := map[spanID]int64{1: 30, 2: 20, 3: 10, 4: 30, 5: 20, 6: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	layers := make(map[string]int64)
	for _, s := range spans {
		layers[layerOf(s.Name)] += self[s.ID]
	}
	if layers["core"] != 70 || layers["services"] != 40 || layers["bench"] != 30 {
		t.Errorf("layer self times = %v, want core 70, services 40, bench 30", layers)
	}
	if got := durations(spans, "core.pin"); len(got) != 2 || got[0] != 10e-9 || got[1] != 30e-9 {
		t.Errorf("durations(core.pin) = %v", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sb := tr.buf()
	sp := sb.begin("core.pin", 0, 1)
	sp.end()
	sp.cancel()
	if sp.id() != 0 || tr.all() != nil {
		t.Error("a nil tracer must hand out inert spans")
	}
}

// benchmarkJSON is the driver's view of BENCHMARK.json.
type benchmarkJSON struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRegistryMatchesJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || runners[w.Name] == nil {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, registry %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, registry %+v", i, m, d)
		}
	}
}

// definedOn lists, per workload, the per-layer metrics that must be non-zero
// on the smoke sizing. (Its drives are unthrottled, so the utilisations read
// 0 there; warm_query and tpch_cluster fit memory, so their miss-path
// counters must read exactly 0.)
var definedOn = map[string][]string{
	"warm_query": {
		"memory.alloc_free_ns", "core.pin_hit_ns", "pfs.page_rw_us",
		"services.index_add_ns", "services.ingest_mb_s", "services.walk_ns_per_rec", "services.columnar_open_ns",
		"query.point_p50_ms", "query.range_p50_ms", "query.agg_p50_ms", "query.rowscan_p50_ms",
		"query.point_p99_ms", "query.range_p95_ms", "query.agg_p95_ms", "query.rowscan_p95_ms",
		"query.point_pages_per_lookup", "query.range_pages_kept_frac",
		"query.agg_ns_per_row", "query.rowscan_ns_per_row",
		"bench.spans", "bench.rounds",
	},
	"spill_scan": {
		"memory.alloc_free_ns", "core.pin_wait_s", "core.pin_miss_p95_ms", "core.add_stall_p95_ms",
		"core.evictions", "core.spills", "core.loads", "core.reread_frac", "core.dropset_ms",
		"disk.reads", "disk.writes", "disk.bytes_read", "disk.bytes_written", "disk.drive_imbalance",
		"pfs.space_amp", "pfs.page_rw_us", "services.seq_add_ns", "services.walk_ns_per_rec",
		"services.ingest_mb_s", "services.scan_mb_s",
		"bench.spans", "bench.rounds",
	},
	"shuffle_agg": {
		"memory.alloc_free_ns", "core.pin_wait_s", "core.pin_miss_p95_ms", "core.add_stall_p95_ms",
		"core.evictions", "core.spills", "core.loads", "core.reread_frac", "core.dropset_ms",
		"disk.reads", "disk.writes", "disk.bytes_read", "disk.bytes_written", "disk.drive_imbalance",
		"pfs.space_amp", "pfs.page_rw_us", "services.shuffle_add_ns", "services.shuffle_read_s",
		"services.ingest_mb_s", "services.scan_mb_s", "services.hash_upsert_ns",
		"bench.spans", "bench.rounds",
	},
	"tpch_cluster": {
		"memory.alloc_free_ns", "core.pin_hit_ns", "pfs.page_rw_us", "services.walk_ns_per_rec",
		"tpch.q01_p50_ms", "tpch.q02_p50_ms", "tpch.q04_p50_ms", "tpch.q06_p50_ms", "tpch.q12_p50_ms",
		"tpch.q13_p50_ms", "tpch.q14_p50_ms", "tpch.q17_p50_ms", "tpch.q22_p50_ms", "tpch.round_p95_ms", "tpch.load_mb_s",
		"cluster.rpc_rtt_us", "cluster.add_records_mb_s", "cluster.fetch_set_mb_s", "cluster.proxy_scan_mb_s",
		"placement.build_replicas_s", "placement.replica_bytes_per_user_byte",
		"bench.spans", "bench.rounds",
	},
}

// fitsMemory names the workloads whose data fits the pool by construction.
var fitsMemory = map[string]bool{"warm_query": true, "tpch_cluster": true}

// TestSmoke drives all four workloads, untraced and traced, on the smoke
// sizing, and checks the shape of what they emit: every metric BENCHMARK.json
// names, once, under the driver's JSON keys; no failed operation; nothing
// left behind. It asserts no timing.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkJSON(t)
	start := time.Now()
	base := t.TempDir()
	for _, w := range workloadNames {
		for _, trace := range []int{0, 1} {
			o := options{workload: w, seed: 42, seconds: 0.2, trace: trace, smoke: true, dir: base}
			out, err := runOnce(o, w, o.seed)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			e2e, layer, attempted, failed := out.e2e, out.layer, out.attempted, out.failed
			if attempted < 1 || failed != 0 {
				t.Errorf("%s trace=%d: attempted %d, failed %d", w, trace, attempted, failed)
			}
			for _, m := range spec.EndToEnd {
				v, ok := e2e[m.Name]
				if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%d: end-to-end metric %s = %v (present %v); it must be a positive number", w, trace, m.Name, v, ok)
				}
			}
			if len(e2e) != len(spec.EndToEnd) {
				t.Errorf("%s trace=%d: %d end-to-end metrics emitted, BENCHMARK.json names %d", w, trace, len(e2e), len(spec.EndToEnd))
			}
			res := buildResult(o, out)
			want := len(spec.EndToEnd)
			if trace == 1 {
				want = len(spec.PerLayer)
			}
			if len(res.Metrics) != want || !res.Correct {
				t.Errorf("%s trace=%d: result has %d metrics (want %d), correct=%v", w, trace, len(res.Metrics), want, res.Correct)
			}
			if trace == 0 {
				if len(layer) != 0 {
					t.Errorf("%s: an untraced run emitted per-layer metrics", w)
				}
				continue
			}
			for _, m := range spec.PerLayer {
				v, ok := layer[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: per-layer metric %s = %v (present %v)", w, m.Name, v, ok)
				}
				if res.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s: per-layer metric %s has unit %q, BENCHMARK.json says %q", w, m.Name, res.Metrics[m.Name].Unit, m.Unit)
				}
			}
			if len(layer) != len(spec.PerLayer) {
				t.Errorf("%s: %d per-layer metrics emitted, BENCHMARK.json names %d", w, len(layer), len(spec.PerLayer))
			}
			for _, name := range definedOn[w] {
				if layer[name] <= 0 {
					t.Errorf("%s: %s = %v, want a positive number", w, name, layer[name])
				}
			}
			if fitsMemory[w] {
				for _, name := range []string{"core.evictions", "core.spills", "core.loads", "disk.bytes_read"} {
					if layer[name] != 0 {
						t.Errorf("%s fits memory, yet %s = %v", w, name, layer[name])
					}
				}
			}
		}
	}
	if left, err := os.ReadDir(base); err != nil || len(left) != 0 {
		t.Errorf("runs left %d entries behind under -dir (err %v)", len(left), err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Logf("smoke took %v; it is meant to stay under 10 s", d)
	}
}

func TestSpansFile(t *testing.T) {
	out := t.TempDir() + "/spans.jsonl"
	o := options{workload: "spill_scan", seed: 1, seconds: 0.1, trace: 1, smoke: true, dir: t.TempDir(), traceOut: out}
	if _, err := runOnce(o, o.workload, o.seed); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[spanID]bool)
	var spans []span
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if s.End < s.Start || s.Name == "" || ids[s.ID] {
			t.Fatalf("bad span %+v", s)
		}
		ids[s.ID] = true
		spans = append(spans, s)
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d names a parent %d that is not in the file", s.ID, s.Parent)
		}
	}
	if len(durations(spans, "core.pin")) == 0 || len(durations(spans, "services.seq_add")) == 0 {
		t.Error("the spill_scan trace holds no core.pin or services.seq_add span")
	}
}

func TestClearPangeaEnv(t *testing.T) {
	t.Setenv("PANGEA_COLUMNAR", "1")
	t.Setenv("PANGEA_FAKE_NUMA", "4")
	t.Setenv("NOT_PANGEA", "kept")
	clearPangeaEnv()
	if _, ok := os.LookupEnv("PANGEA_COLUMNAR"); ok {
		t.Error("PANGEA_COLUMNAR survived")
	}
	if _, ok := os.LookupEnv("PANGEA_FAKE_NUMA"); ok {
		t.Error("PANGEA_FAKE_NUMA survived")
	}
	if os.Getenv("NOT_PANGEA") != "kept" {
		t.Error("an unrelated variable was cleared")
	}
}
