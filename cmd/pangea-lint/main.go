// Command pangea-lint runs the Pangea invariant analyzers (pinleak,
// lockorder, gaugepair, errdrop — see internal/lint) over Go packages:
//
//	go run ./cmd/pangea-lint ./...
//
// With no package arguments it checks ./... . It prints one line per
// diagnostic and exits 1 if there was any, 0 on a clean tree, and 2 when the
// packages cannot be loaded or analyzed.
package main

import (
	"flag"
	"fmt"
	"os"

	"pangea/internal/lint"
)

func main() {
	flag.Usage = func() { fmt.Fprintln(flag.CommandLine.Output(), "usage: pangea-lint [packages]") }
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pangea-lint: %v\n", err)
		os.Exit(2)
	}
	found := false
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.Analyzers())
		if err != nil {
			fmt.Fprintf(os.Stderr, "pangea-lint: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			found = true
			fmt.Printf("%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
		}
	}
	if found {
		os.Exit(1)
	}
}
