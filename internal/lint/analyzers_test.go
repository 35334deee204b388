package lint_test

import (
	"testing"

	"pangea/internal/lint"
	"pangea/internal/lint/linttest"
	"pangea/internal/locking"
)

const tdBase = "pangea/internal/lint/testdata/src/"

func TestPinLeak(t *testing.T) {
	orig := lint.PinSources
	lint.PinSources = append(lint.PinSources, lint.PinSource{
		PkgPath: tdBase + "pinleak",
		Type:    "Set",
		Pins:    []string{"Pin", "NewPage"},
		Release: []string{"Unpin", "Retire"},
	})
	defer func() { lint.PinSources = orig }()
	linttest.Run(t, "./testdata/src/pinleak", lint.PinLeak)
}

func TestLockOrder(t *testing.T) {
	orig := lint.LockOrderTable
	lint.LockOrderTable = append(lint.LockOrderTable,
		lint.LockClass{PkgPath: tdBase + "lockorder", Type: "Registry", Field: "mu", Rank: locking.RankRegistry},
		lint.LockClass{PkgPath: tdBase + "lockorder", Type: "Set", Field: "mu", Rank: locking.RankSet},
		lint.LockClass{PkgPath: tdBase + "lockorder", Type: "Shard", Field: "mu", Rank: locking.RankAllocTLSF},
	)
	defer func() { lint.LockOrderTable = orig }()
	linttest.Run(t, "./testdata/src/lockorder", lint.LockOrder)
}

func TestGaugePair(t *testing.T) {
	orig := lint.GaugeTable
	lint.GaugeTable = append(lint.GaugeTable, lint.GaugeField{
		PkgPath: tdBase + "gaugepair",
		Type:    "Tracker",
		Field:   "resident",
		Allowed: []string{"charge", "release"},
	})
	defer func() { lint.GaugeTable = orig }()
	linttest.Run(t, "./testdata/src/gaugepair", lint.GaugePair)
}

func TestErrDrop(t *testing.T) {
	orig := lint.ErrDropRules
	lint.ErrDropRules = append(lint.ErrDropRules, lint.ErrDropRule{
		PkgPath: tdBase + "errdrop",
		Names:   []string{"Spill", "Flush", "Close"},
	})
	defer func() { lint.ErrDropRules = orig }()
	linttest.Run(t, "./testdata/src/errdrop", lint.ErrDrop)
}

// TestRealTreeClean is the in-repo twin of the CI lint job: the shipped
// tree must produce zero diagnostics (after suppressions).
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module; skipped in -short")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
		}
	}
}
