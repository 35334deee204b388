// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the storage engine, the end-to-end metrics a user of the
// system sees, and — on a traced run — a ladder of per-layer metrics taken
// from outside the engine. BENCHMARK.json at the repository root tells the
// driver how to run it; README.md says what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

var runners = map[string]func(*runCtx) error{
	"warm_query":   runWarmQuery,
	"spill_scan":   runSpillScan,
	"shuffle_agg":  runShuffleAgg,
	"tpch_cluster": runTPCHCluster,
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	dir      string
	smoke    bool
	repeat   int
}

// result is one run's outcome: the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run measured.
type outcome struct {
	e2e       map[string]float64 // every end-to-end metric
	layer     map[string]float64 // every per-layer metric, on a traced run
	layerSelf map[string]float64 // seconds of span self time per layer, on a traced run
	attempted int64
	failed    int64
}

// runOnce runs one workload from fresh state — new drive directory, new
// pools, new cluster.
func runOnce(o options, workload string, seed uint64) (outcome, error) {
	base := o.dir
	if base == "" {
		base = ".bench_tmp" // inside the checkout, which is all the driver lets a run write to
	}
	_, statErr := os.Stat(base)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return outcome{}, err
	}
	dir, err := os.MkdirTemp(base, workload+"-")
	if err != nil {
		return outcome{}, err
	}
	defer func() {
		os.RemoveAll(dir)
		if os.IsNotExist(statErr) {
			os.Remove(base) // this run made it; it goes once the last run under it has
		}
	}()
	if dir, err = filepath.Abs(dir); err != nil {
		return outcome{}, err
	}
	rc := &runCtx{
		workload: workload, seed: seed, sz: fullSizing, dir: dir,
		seconds: time.Duration(o.seconds * float64(time.Second)),
		e2e:     make(map[string]float64), layer: make(map[string]float64),
	}
	if o.smoke {
		rc.sz = smokeSizing
	}
	if o.trace != 0 {
		rc.tr = newTracer()
		for _, m := range perLayer {
			rc.layer[m.Name] = 0 // a metric with no meaning on this workload reads 0
		}
	}
	rc.startWatchdog()
	err = runners[workload](rc)
	rc.stopWatchdog()
	out := outcome{e2e: rc.e2e, layer: rc.layer, attempted: rc.attempted.Load(), failed: rc.failed.Load()}
	if err != nil || rc.tr == nil {
		return out, err
	}

	// What comes from the whole span list: how many there are, what share of
	// the traced rounds no span beneath them covers, and each layer's self
	// time.
	spans := rc.tr.all()
	self := selfTimes(spans)
	var roundNs, roundSelfNs int64
	out.layerSelf = make(map[string]float64)
	for _, s := range spans {
		if s.Name == "bench.round" {
			roundNs += s.dur()
			roundSelfNs += self[s.ID]
		}
		out.layerSelf[layerOf(s.Name)] += float64(self[s.ID]) / 1e9
	}
	rc.layer["bench.spans"] = float64(len(spans))
	rc.layer["bench.unattributed_frac"] = ratio(float64(roundSelfNs), float64(roundNs))
	if o.traceOut != "" {
		err = writeSpans(o.traceOut, spans)
	}
	return out, err
}

func printMetrics(title string, defs []metricDef, vals map[string]float64) {
	fmt.Printf("## %s\n", title)
	for _, m := range defs {
		fmt.Printf("%-40s %16.6g %s\n", m.Name, vals[m.Name], m.Unit)
	}
}

// buildResult is the driver's view of a run: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func buildResult(o options, out outcome) result {
	defs, vals := endToEnd, out.e2e
	if o.trace != 0 {
		defs, vals = perLayer, out.layer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metricValue)}
	for _, m := range defs {
		res.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return res
}

// emit prints a run's metrics by name with their units and, as the last
// line, the driver's JSON object.
func emit(o options, workload string, out outcome) error {
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d smoke=%v attempted=%d failed=%d\n",
		workload, o.seed, o.seconds, o.trace, o.smoke, out.attempted, out.failed)
	printMetrics("end to end", endToEnd, out.e2e)
	if o.trace != 0 {
		printMetrics("per layer", perLayer, out.layer)
		fmt.Println("## span self time by layer (bench = not attributed)")
		layers := make([]string, 0, len(out.layerSelf))
		var all float64
		for l, t := range out.layerSelf {
			layers, all = append(layers, l), all+t
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Printf("%-40s %16.6g s %6.2f%%\n", l, out.layerSelf[l], 100*ratio(out.layerSelf[l], all))
		}
	}
	line, err := json.Marshal(buildResult(o, out))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// repeat runs a workload n times, each from fresh state and on its own seed,
// and prints each metric's median, quartiles and relative spread (the
// distance between the quartiles as a share of the median): the tool the
// repeatability procedure in README.md, and every later before/after, is run
// with.
func repeat(o options, workload string) (failed int64, err error) {
	samples := make(map[string][]float64)
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + uint64(i)
		out, err := runOnce(o, workload, seed)
		if err != nil {
			return failed, err
		}
		failed += out.failed
		for _, vals := range []map[string]float64{out.e2e, out.layer} {
			for k, v := range vals {
				samples[k] = append(samples[k], v)
			}
		}
		fmt.Printf("# %s run %d/%d seed=%d failed=%d\n", workload, i+1, o.repeat, seed, out.failed)
	}
	fmt.Printf("# workload=%s runs=%d seeds=%d..%d failed=%d\n", workload, o.repeat, o.seed, o.seed+uint64(o.repeat)-1, failed)
	fmt.Printf("%-40s %-8s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			xs, ok := samples[m.Name]
			if !ok {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			fmt.Printf("%-40s %-8s %14.6g %14.6g %14.6g %7.2f%%\n", m.Name, m.Unit, q1, q2, q3, 100*ratio(q3-q1, q2))
		}
	}
	return failed, nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "warm_query, spill_scan, shuffle_agg, tpch_cluster, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long each measured loop runs")
	flag.IntVar(&o.trace, "trace", 0, "1 reruns every second round through the shadow drivers and reports the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "file the spans of a traced run are written to, as JSON lines")
	flag.StringVar(&o.dir, "dir", "", "directory the drive directories are made under (default .bench_tmp)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes on unthrottled drives: a few seconds per workload")
	flag.IntVar(&o.repeat, "repeat", 0, "run the workload this many times from fresh state and print each metric's median, quartiles and spread")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	workloads := []string{o.workload}
	if o.workload == "all" {
		workloads = workloadNames
	} else if runners[o.workload] == nil {
		names := append([]string(nil), workloadNames...)
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %v, all)\n", o.workload, names)
		os.Exit(2)
	}

	clearPangeaEnv()
	printHeader()
	var failed int64
	for _, w := range workloads {
		if o.repeat > 0 {
			f, err := repeat(o, w)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w, err)
				os.Exit(1)
			}
			failed += f
			continue
		}
		out, err := runOnce(o, w, o.seed)
		if err == nil {
			err = emit(o, w, out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w, err)
			os.Exit(1)
		}
		failed += out.failed
	}
	if failed > 0 {
		os.Exit(1)
	}
}
