package lint

import (
	"go/ast"
	"go/types"

	"pangea/internal/locking"
)

// LockClass places one mutex field in the global lock order. Type may be
// empty to register a package-level mutex variable.
type LockClass struct {
	PkgPath string
	Type    string
	Field   string
	Rank    locking.Rank
}

func (c *LockClass) String() string {
	pkg := c.PkgPath
	for i := len(pkg) - 1; i >= 0; i-- {
		if pkg[i] == '/' {
			pkg = pkg[i+1:]
			break
		}
	}
	if c.Type == "" {
		return pkg + "." + c.Field
	}
	return pkg + "." + c.Type + "." + c.Field
}

// LockOrderTable is the declarative order registry, mirroring the ranks in
// internal/locking (the runtime twin enforces the same table under
// -tags pangea_checks). Tests may append entries.
var LockOrderTable = []LockClass{
	{"pangea/internal/cluster", "Worker", "mu", locking.RankWorker},
	{"pangea/internal/cluster", "setWriter", "mu", locking.RankSetWriter},
	{"pangea/internal/core", "BufferPool", "regMu", locking.RankRegistry},
	{"pangea/internal/core", "LocalitySet", "mu", locking.RankSet},
	{"pangea/internal/services", "sideIndex", "mu", locking.RankSideIndex},
	{"pangea/internal/memory", "shard", "mu", locking.RankAllocTLSF},
	{"pangea/internal/pfs", "PagedFile", "mu", locking.RankPFS},
	{"pangea/internal/disk", "Queue", "mu", locking.RankIOQueue},
	{"pangea/internal/disk", "Disk", "mu", locking.RankDisk},
}

// LockOrder statically checks Lock/RLock nesting inside each function
// against LockOrderTable: acquiring a class whose rank is <= the rank of a
// class already held is an inversion. The analysis is intraprocedural and
// follows statement order; locks taken in one branch are not assumed held
// after the branch rejoins, and a deferred Unlock keeps its class held to
// function end (which is exactly what it does at run time). The
// pangea_checks runtime twin covers the interprocedural cases.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "flags mutex acquisitions that invert the documented Pangea lock order " +
		"(registry -> set -> allocator shard -> pfs index -> I/O queue -> disk)",
	Run: runLockOrder,
}

var lockMethods = map[string]bool{"Lock": true, "RLock": true, "TryLock": true}
var unlockMethods = map[string]bool{"Unlock": true, "RUnlock": true}

func lockClassFor(pkgPath, typ, field string) *LockClass {
	for i := range LockOrderTable {
		c := &LockOrderTable[i]
		if c.PkgPath == pkgPath && c.Type == typ && c.Field == field {
			return c
		}
	}
	return nil
}

// classOf resolves the lock class of a Lock/Unlock call's operand, or nil.
func classOf(info *types.Info, call *ast.CallExpr) *LockClass {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	field, owner := fieldSelection(info, sel.X)
	if field == nil {
		return nil
	}
	typ := ""
	if owner != nil {
		typ = owner.Obj().Name()
	}
	return lockClassFor(pkgPathOf(field), typ, field.Name())
}

type heldClass struct {
	class *LockClass
}

func runLockOrder(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				walkLockOrder(pass, fd.Body.List, nil)
				return false
			}
			return true
		})
	}
	return nil
}

// scanLockCalls finds ranked Lock/Unlock calls inside a single statement
// or expression (conditions, init statements, call arguments) in source
// order and applies them to held. Nested function literals are skipped:
// their bodies run on their own call schedule, not at this point.
func scanLockCalls(pass *Pass, n ast.Node, held *[]heldClass, skipDefer bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			walkLockOrder(pass, x.Body.List, nil)
			return false
		case *ast.DeferStmt:
			if skipDefer {
				// A deferred Unlock releases at function end; model it by
				// leaving the class held for the rest of the walk. A
				// deferred Lock inside would be bizarre; ignore likewise.
				return false
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if lockMethods[sel.Sel.Name] {
				if c := classOf(pass.TypesInfo, x); c != nil {
					for _, h := range *held {
						if h.class.Rank >= c.Rank {
							pass.Reportf(x.Pos(),
								"lock order violation: acquiring %s(rank %d) while holding %s(rank %d)",
								c, c.Rank, h.class, h.class.Rank)
							return true
						}
					}
					*held = append(*held, heldClass{class: c})
				}
			} else if unlockMethods[sel.Sel.Name] {
				if c := classOf(pass.TypesInfo, x); c != nil {
					for i := len(*held) - 1; i >= 0; i-- {
						if (*held)[i].class == c {
							*held = append((*held)[:i], (*held)[i+1:]...)
							break
						}
					}
				}
			}
		}
		return true
	})
}

// walkLockOrder interprets stmts in order, tracking the held set. Branch
// bodies are checked with a copy of the held set; their effects do not
// propagate past the branch (conservative: under-tracking can miss
// violations but cannot invent them).
func walkLockOrder(pass *Pass, stmts []ast.Stmt, held []heldClass) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			walkLockOrder(pass, s.List, append([]heldClass(nil), held...))
		case *ast.IfStmt:
			scanLockCalls(pass, s.Init, &held, true)
			scanLockCalls(pass, s.Cond, &held, true)
			walkLockOrder(pass, s.Body.List, append([]heldClass(nil), held...))
			if s.Else != nil {
				walkLockOrder(pass, []ast.Stmt{s.Else}, append([]heldClass(nil), held...))
			}
		case *ast.ForStmt:
			scanLockCalls(pass, s.Init, &held, true)
			scanLockCalls(pass, s.Cond, &held, true)
			walkLockOrder(pass, s.Body.List, append([]heldClass(nil), held...))
		case *ast.RangeStmt:
			scanLockCalls(pass, s.X, &held, true)
			walkLockOrder(pass, s.Body.List, append([]heldClass(nil), held...))
		case *ast.SwitchStmt:
			scanLockCalls(pass, s.Init, &held, true)
			scanLockCalls(pass, s.Tag, &held, true)
			for _, cc := range s.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					walkLockOrder(pass, c.Body, append([]heldClass(nil), held...))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range s.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					walkLockOrder(pass, c.Body, append([]heldClass(nil), held...))
				}
			}
		case *ast.SelectStmt:
			for _, cc := range s.Body.List {
				if c, ok := cc.(*ast.CommClause); ok {
					walkLockOrder(pass, c.Body, append([]heldClass(nil), held...))
				}
			}
		case *ast.LabeledStmt:
			walkLockOrder(pass, []ast.Stmt{s.Stmt}, held)
		case *ast.DeferStmt:
			// Deferred unlocks keep the class held to function end: skip
			// the release but still check any Lock calls in the deferred
			// expression's arguments, and walk deferred closures.
			scanLockCalls(pass, s.Call.Fun, &held, true)
			for _, a := range s.Call.Args {
				scanLockCalls(pass, a, &held, true)
			}
		default:
			scanLockCalls(pass, stmt, &held, false)
		}
	}
}
