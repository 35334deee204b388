package lint

import (
	"go/ast"
	"strings"
)

// ErrDropRule marks functions whose error results must never be discarded.
// An empty Names list covers every error-returning function and method of
// the package.
type ErrDropRule struct {
	PkgPath string
	Names   []string
}

// ErrDropRules is the default rule set: the storage stack's spill, queue
// and paged-file layers — the exact shape of the PR 2 swallowed
// eviction-error bug — plus the core and services entry points whose
// errors carry data-loss information. Tests may append rules.
var ErrDropRules = []ErrDropRule{
	{PkgPath: "pangea/internal/pfs"},
	{PkgPath: "pangea/internal/disk"},
	{PkgPath: "pangea/internal/core", Names: []string{
		"Unpin", "FlushAll", "DropSet", "WriteSideObject", "Close", "Shutdown",
	}},
	{PkgPath: "pangea/internal/services", Names: []string{
		"Add", "Close", "Flush", "Save",
	}},
}

// ErrDrop reports call statements that discard an error result from the
// configured spill/evict/queue/pfs functions.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc: "flags discarded error results from spill/evict/queue/pfs functions; " +
		"an explicit `_ =` assignment or //lint:ignore marks a deliberate drop",
	Run: runErrDrop,
}

func errDropMatch(pkgPath, name string) bool {
	for _, r := range ErrDropRules {
		if r.PkgPath != pkgPath {
			continue
		}
		if len(r.Names) == 0 {
			return true
		}
		for _, n := range r.Names {
			if n == name {
				return true
			}
		}
	}
	return false
}

func runErrDrop(pass *Pass) error {
	check := func(call *ast.CallExpr, how string) {
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || !returnsError(fn) {
			return
		}
		if !errDropMatch(pkgPathOf(fn), fn.Name()) {
			return
		}
		qual := fn.Name()
		if recv := namedRecv(fn); recv != nil {
			qual = recv.Obj().Name() + "." + qual
		}
		pkg := pkgPathOf(fn)
		pkg = pkg[strings.LastIndex(pkg, "/")+1:]
		pass.Reportf(call.Pos(), "error result of %s.%s is discarded%s", pkg, qual, how)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					check(call, "")
				}
			case *ast.GoStmt:
				check(s.Call, " (in go statement)")
			case *ast.DeferStmt:
				check(s.Call, " (in deferred call)")
			}
			return true
		})
	}
	return nil
}
