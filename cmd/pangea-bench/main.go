// Command pangea-bench regenerates the paper's tables and figures (§9) on
// the simulated substrate, and doubles as CI's bench-regression gate.
//
// Usage:
//
//	pangea-bench                    # every experiment, in the paper's order
//	pangea-bench -quick             # the same at CI-sized workloads
//	pangea-bench -exp fig3          # one experiment
//
//	pangea-bench -render bench.txt -o BENCH_pool.json
//	    parse `go test -bench` output into the BENCH_pool artifact JSON
//	pangea-bench -gate -baseline prev.json -current BENCH_pool.json
//	    exit 1 when any benchmark's ns/op regressed past -threshold
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pangea/internal/exp"
)

// expIDs lists every registered experiment for the -exp usage string, so the
// help text can't drift from the registry.
func expIDs() string {
	ids := make([]string, len(exp.Registry))
	for i, e := range exp.Registry {
		ids[i] = e.ID
	}
	return strings.Join(ids, " ")
}

func main() {
	var (
		which = flag.String("exp", "all", "experiment id ("+expIDs()+") or 'all'")
		quick = flag.Bool("quick", false, "run the CI-sized workloads")
		dir   = flag.String("dir", "", "scratch directory for simulated drives (default: a temp dir)")

		render    = flag.String("render", "", "parse `go test -bench` output from this file ('-' for stdin) into artifact JSON")
		out       = flag.String("o", "", "with -render: write the JSON here (default stdout)")
		gateMode  = flag.Bool("gate", false, "compare -current against -baseline and fail on ns/op regressions")
		baseline  = flag.String("baseline", "", "with -gate: baseline artifact JSON (previous run or committed bench_baseline.json)")
		current   = flag.String("current", "", "with -gate: this run's artifact JSON")
		threshold = flag.Float64("threshold", 0.25, "with -gate: allowed ns/op growth before failing (0.25 = +25%)")
	)
	flag.Parse()

	if *render != "" {
		if err := renderMain(*render, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if *gateMode {
		if *baseline == "" || *current == "" {
			fmt.Fprintln(os.Stderr, "-gate needs both -baseline and -current")
			os.Exit(2)
		}
		regressions, err := runGate(os.Stdout, *baseline, *current, *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "bench gate: %d benchmark(s) regressed more than %.0f%%\n", regressions, *threshold*100)
			os.Exit(1)
		}
		return
	}

	scratch := *dir
	if scratch == "" {
		var err error
		scratch, err = os.MkdirTemp("", "pangea-bench-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(scratch)
	}
	o := exp.Options{Quick: *quick, Dir: scratch}

	run := func(id string, fn exp.RunFunc) {
		t, err := fn(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		t.Print(os.Stdout)
	}
	if *which == "all" {
		for _, e := range exp.Registry {
			run(e.ID, e.Fn)
		}
		return
	}
	for _, e := range exp.Registry {
		if e.ID == *which {
			run(e.ID, e.Fn)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q; known:\n", *which)
	for _, e := range exp.Registry {
		fmt.Fprintf(os.Stderr, "  %-6s %s\n", e.ID, e.Doc)
	}
	os.Exit(2)
}

// renderMain parses bench text from path (or stdin for "-") and writes the
// artifact JSON to outPath (or stdout when empty).
func renderMain(path, outPath string) error {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	rows, err := parseBenchText(in)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("%s: no benchmark result lines found", path)
	}
	w := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return writeBenchJSON(w, rows)
}
