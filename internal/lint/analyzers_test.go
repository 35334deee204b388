package lint_test

import (
	"go/types"
	"strings"
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

// TestLockOrderTableResolves: every class in the order table names a
// locking.Mutex or locking.RWMutex field of a named type (or a package-level
// one) that exists in the tree, and its rank's label names the same class.
// A class whose type or field was renamed would otherwise drop out of the
// lockorder check without a word.
func TestLockOrderTableResolves(t *testing.T) {
	var paths []string
	seen := map[string]bool{}
	for _, c := range lint.LockOrderTable {
		if !seen[c.PkgPath] {
			seen[c.PkgPath] = true
			paths = append(paths, c.PkgPath)
		}
	}
	pkgs, err := lint.Load("../..", paths...)
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*types.Package{}
	for _, p := range pkgs {
		byPath[p.PkgPath] = p.Types
	}
	for _, c := range lint.LockOrderTable {
		if !strings.HasPrefix(c.Rank.String(), c.String()+"(") {
			t.Errorf("%s: its rank reads %s", c.String(), c.Rank)
		}
		pkg := byPath[c.PkgPath]
		if pkg == nil {
			t.Errorf("%s: package %s not in the tree", c.String(), c.PkgPath)
			continue
		}
		var field types.Object
		if c.Type == "" {
			field = pkg.Scope().Lookup(c.Field)
		} else if tn, ok := pkg.Scope().Lookup(c.Type).(*types.TypeName); ok {
			field, _, _ = types.LookupFieldOrMethod(tn.Type(), true, pkg, c.Field)
		}
		v, ok := field.(*types.Var)
		if !ok {
			t.Errorf("%s: no such field or variable", c.String())
			continue
		}
		named, ok := v.Type().(*types.Named)
		if !ok || named.Obj().Pkg().Path() != "pangea/internal/locking" ||
			(named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
			t.Errorf("%s: has type %s, want locking.Mutex or locking.RWMutex", c.String(), v.Type())
		}
	}
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
