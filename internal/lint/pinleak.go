package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// PinSource describes methods that return a pinned page the caller must
// release, and the methods that release it.
type PinSource struct {
	PkgPath string
	Type    string
	Pins    []string // methods returning (page, error) with the page pinned
	Release []string // methods taking the page as an argument and ending the pin
}

// PinSources is the default registry: core.LocalitySet.Pin/NewPage hand
// out pinned pages; core.LocalitySet.Unpin releases them, as does Retire, the
// release of a read-once set's reader. Tests may append.
var PinSources = []PinSource{
	{
		PkgPath: "pangea/internal/core",
		Type:    "LocalitySet",
		Pins:    []string{"Pin", "NewPage"},
		Release: []string{"Unpin", "Retire"},
	},
}

// PinLeak reports code paths on which a page obtained from Pin/NewPage can
// escape its scope still pinned: early returns between the pin and the
// Unpin (the classic error-path leak), fallthrough off the end of the
// pinning scope, and `_`-discarded pin results, which can never be
// unpinned at all.
//
// The analysis is intraprocedural and ownership-based: passing the page to
// any other function, storing it, returning it, or capturing it in a
// closure transfers ownership and ends tracking (the receiver is then
// responsible — Pangea helpers that consume pages unpin them). Method
// calls on the page itself (p.Bytes(), p.Num()) are reads, not transfers.
// The idiomatic `if err != nil { return err }` immediately after a pin is
// understood: no page exists on that branch.
var PinLeak = &Analyzer{
	Name: "pinleak",
	Doc: "flags LocalitySet.Pin/NewPage results that may not reach Unpin (or Retire) " +
		"on all paths, including error returns",
	Run: runPinLeak,
}

func pinSourceFor(fn *types.Func) *PinSource {
	recv := namedRecv(fn)
	if recv == nil {
		return nil
	}
	for i := range PinSources {
		s := &PinSources[i]
		if s.PkgPath == pkgPathOf(fn) && s.Type == recv.Obj().Name() {
			return s
		}
	}
	return nil
}

// isPinCall reports whether call obtains a pinned page.
func isPinCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	src := pinSourceFor(fn)
	return src != nil && slices.Contains(src.Pins, fn.Name())
}

// isReleaseCall reports whether call releases obj (s.Unpin(p, ...),
// s.Retire(p)).
func isReleaseCall(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	src := pinSourceFor(fn)
	if src == nil || !slices.Contains(src.Release, fn.Name()) {
		return false
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
			return true
		}
	}
	return false
}

func runPinLeak(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					findPins(pass, fn.Body)
				}
			case *ast.FuncLit:
				findPins(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// findPins locates pin assignments directly inside body's statement lists
// (skipping nested function literals, which are analyzed on their own) and
// tracks each one through its enclosing block.
func findPins(pass *Pass, body *ast.BlockStmt) {
	var visitList func(list []ast.Stmt)
	var visitStmt func(s ast.Stmt)
	visitStmt = func(s ast.Stmt) {
		switch st := s.(type) {
		case *ast.BlockStmt:
			visitList(st.List)
		case *ast.IfStmt:
			visitList(st.Body.List)
			if st.Else != nil {
				visitStmt(st.Else)
			}
		case *ast.ForStmt:
			visitList(st.Body.List)
		case *ast.RangeStmt:
			visitList(st.Body.List)
		case *ast.SwitchStmt:
			for _, cc := range st.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					visitList(c.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range st.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					visitList(c.Body)
				}
			}
		case *ast.SelectStmt:
			for _, cc := range st.Body.List {
				if c, ok := cc.(*ast.CommClause); ok {
					visitList(c.Body)
				}
			}
		case *ast.LabeledStmt:
			visitStmt(st.Stmt)
		}
	}
	visitList = func(list []ast.Stmt) {
		for i, s := range list {
			if assign, ok := s.(*ast.AssignStmt); ok {
				if pin := pinAssign(pass, assign); pin != nil {
					trackPin(pass, pin, list[i+1:])
					continue
				}
			}
			visitStmt(s)
		}
	}
	visitList(body.List)
}

// pinnedVar is one tracked pin: the page variable, the error variable from
// the same assignment (nil once reassigned), and the pin position.
type pinnedVar struct {
	page ast.Expr // the call, for reporting
	obj  types.Object
	err  types.Object
	line int
}

// pinAssign recognizes `p, err := s.Pin(n)` / `= s.NewPage()` shapes and
// returns the tracking state, reporting discarded pages immediately. A nil
// return means the statement is not a trackable pin.
func pinAssign(pass *Pass, assign *ast.AssignStmt) *pinnedVar {
	if len(assign.Rhs) != 1 || len(assign.Lhs) != 2 {
		return nil
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok || !isPinCall(pass.TypesInfo, call) {
		return nil
	}
	pageID, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return nil // pinned page stored directly into a field/element: owner escapes
	}
	if pageID.Name == "_" {
		pass.Reportf(call.Pos(),
			"pinned page is discarded: assign the %s result and Unpin it",
			calleeFunc(pass.TypesInfo, call).Name())
		return nil
	}
	if assign.Tok != token.DEFINE {
		// Reassignment into an existing variable: the page may outlive
		// this block; too aliased to track soundly.
		return nil
	}
	obj := pass.TypesInfo.Defs[pageID]
	if obj == nil {
		// `p, err :=` where p was declared earlier in the scope: go/types
		// records a Use instead of a Def.
		obj = pass.TypesInfo.Uses[pageID]
	}
	if obj == nil {
		return nil
	}
	pin := &pinnedVar{page: call, obj: obj, line: pass.Fset.Position(call.Pos()).Line}
	if errID, ok := assign.Lhs[1].(*ast.Ident); ok && errID.Name != "_" {
		if eo := pass.TypesInfo.Defs[errID]; eo != nil {
			pin.err = eo
		} else {
			pin.err = pass.TypesInfo.Uses[errID]
		}
	}
	return pin
}

// trackPin walks the statements after the pin within its scope and reports
// paths on which the page stays pinned.
func trackPin(pass *Pass, pin *pinnedVar, rest []ast.Stmt) {
	released, terminated := walkPin(pass, pin, rest, false, 0)
	if !released && !terminated {
		pass.Reportf(pin.page.Pos(),
			"pinned page '%s' goes out of scope without Unpin", pin.obj.Name())
	}
}

// usesObj reports whether obj appears under n in an ownership-consuming
// position: any use except as the receiver of a method call, a field/
// method selection base, or a nil comparison.
func usesObj(info *types.Info, n ast.Node, obj types.Object) (consumed, read bool) {
	if n == nil {
		return false, false
	}
	var parents []ast.Node
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			parents = parents[:len(parents)-1]
			return false
		}
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			read = true
			if !benignUse(parents, id) {
				consumed = true
			}
		}
		parents = append(parents, m)
		return true
	})
	return consumed, read
}

// benignUse reports whether the identifier's immediate context is a
// non-consuming read: `p.Field`, `p.Method(...)`, or `p == nil`/`p != nil`.
func benignUse(parents []ast.Node, id *ast.Ident) bool {
	if len(parents) == 0 {
		return false
	}
	switch p := parents[len(parents)-1].(type) {
	case *ast.SelectorExpr:
		return p.X == id // selection base: field read or method receiver
	case *ast.BinaryExpr:
		if p.Op == token.EQL || p.Op == token.NEQ {
			other := p.X
			if p.X == id {
				other = p.Y
			}
			if lit, ok := other.(*ast.Ident); ok && lit.Name == "nil" {
				return true
			}
		}
	}
	return false
}

// stmtReleases reports whether executing s releases or consumes the pin.
func stmtReleases(pass *Pass, pin *pinnedVar, s ast.Stmt) bool {
	released := false
	ast.Inspect(s, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok && isReleaseCall(pass.TypesInfo, call, pin.obj) {
			released = true
			return false
		}
		return true
	})
	if released {
		return true
	}
	consumed, _ := usesObj(pass.TypesInfo, s, pin.obj)
	return consumed
}

// errCond classifies an if-condition against the pin's error variable:
// +1 for `err != nil` (pin failed inside the branch), -1 for `err == nil`
// (pin succeeded inside), 0 otherwise.
func errCond(pass *Pass, pin *pinnedVar, cond ast.Expr) int {
	if pin.err == nil {
		return 0
	}
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return 0
	}
	isErr := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == pin.err
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if (isErr(be.X) && isNil(be.Y)) || (isErr(be.Y) && isNil(be.X)) {
		if be.Op == token.NEQ {
			return +1
		}
		return -1
	}
	return 0
}

// assignsErr reports whether s writes to the pin's error variable (which
// invalidates the err-nil branch special case from then on).
func assignsErr(pass *Pass, pin *pinnedVar, s ast.Stmt) bool {
	if pin.err == nil {
		return false
	}
	hit := false
	ast.Inspect(s, func(m ast.Node) bool {
		if as, ok := m.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if pass.TypesInfo.Uses[id] == pin.err || pass.TypesInfo.Defs[id] == pin.err {
						hit = true
					}
				}
			}
		}
		return true
	})
	return hit
}

// walkPin interprets stmts with the pin live. released carries "the pin
// has been released or its ownership transferred on this path". loopDepth
// counts loops entered since the pin's own block: break/continue at depth
// zero exit the pin's scope. Returns the fallthrough released state and
// whether every path through stmts terminated (returned).
func walkPin(pass *Pass, pin *pinnedVar, stmts []ast.Stmt, released bool, loopDepth int) (bool, bool) {
	reportReturn := func(ret *ast.ReturnStmt) {
		pass.Reportf(ret.Pos(),
			"pinned page '%s' (pinned at line %d) is not unpinned on this return path",
			pin.obj.Name(), pin.line)
	}
	for _, stmt := range stmts {
		if assignsErr(pass, pin, stmt) {
			pin.err = nil
		}
		switch s := stmt.(type) {
		case *ast.ReturnStmt:
			if released {
				return true, true
			}
			consumed, _ := usesObj(pass.TypesInfo, s, pin.obj)
			if consumed {
				return true, true // page returned to caller: ownership transfer
			}
			reportReturn(s)
			return released, true
		case *ast.BranchStmt:
			if s.Tok == token.GOTO {
				return true, true // cannot follow; stop tracking
			}
			if loopDepth == 0 && !released {
				// break/continue out of the iteration that pinned the
				// page: the variable dies with the iteration.
				pass.Reportf(s.Pos(),
					"pinned page '%s' (pinned at line %d) is not unpinned before this %s",
					pin.obj.Name(), pin.line, s.Tok)
				return released, true
			}
			return released, true
		case *ast.IfStmt:
			if s.Init != nil {
				if assignsErr(pass, pin, s.Init) {
					pin.err = nil
				}
				if stmtReleases(pass, pin, s.Init) {
					released = true
				}
			}
			condConsumed, _ := usesObj(pass.TypesInfo, s.Cond, pin.obj)
			if condConsumed {
				released = true
			}
			switch errCond(pass, pin, s.Cond) {
			case +1: // err != nil: no page exists inside the branch
				walkPin(pass, pin, s.Body.List, true, loopDepth)
				if s.Else != nil {
					r, t := walkPin(pass, pin, []ast.Stmt{s.Else}, released, loopDepth)
					if t {
						return r, true
					}
					released = r
				}
				continue
			case -1: // err == nil: page exists only inside the branch
				rB, tB := walkPin(pass, pin, s.Body.List, released, loopDepth)
				if s.Else != nil {
					walkPin(pass, pin, []ast.Stmt{s.Else}, true, loopDepth)
				}
				// After the if, the pin either never happened (err != nil
				// path) or went through the body.
				if tB {
					released = true
				} else {
					released = rB
				}
				continue
			}
			rB, tB := walkPin(pass, pin, s.Body.List, released, loopDepth)
			rE, tE := released, false
			if s.Else != nil {
				rE, tE = walkPin(pass, pin, []ast.Stmt{s.Else}, released, loopDepth)
			}
			if tB && tE {
				return released, true
			}
			switch {
			case tB:
				released = rE
			case tE:
				released = rB
			default:
				released = rB && rE
			}
		case *ast.BlockStmt:
			r, t := walkPin(pass, pin, s.List, released, loopDepth)
			if t {
				return r, true
			}
			released = r
		case *ast.ForStmt:
			walkPin(pass, pin, s.Body.List, released, loopDepth+1)
			if stmtReleases(pass, pin, s) {
				released = true
			}
		case *ast.RangeStmt:
			walkPin(pass, pin, s.Body.List, released, loopDepth+1)
			if stmtReleases(pass, pin, s) {
				released = true
			}
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var bodies [][]ast.Stmt
			switch sw := s.(type) {
			case *ast.SwitchStmt:
				for _, cc := range sw.Body.List {
					if c, ok := cc.(*ast.CaseClause); ok {
						bodies = append(bodies, c.Body)
					}
				}
			case *ast.TypeSwitchStmt:
				for _, cc := range sw.Body.List {
					if c, ok := cc.(*ast.CaseClause); ok {
						bodies = append(bodies, c.Body)
					}
				}
			case *ast.SelectStmt:
				for _, cc := range sw.Body.List {
					if c, ok := cc.(*ast.CommClause); ok {
						bodies = append(bodies, c.Body)
					}
				}
			}
			for _, b := range bodies {
				walkPin(pass, pin, b, released, loopDepth+1)
			}
			if stmtReleases(pass, pin, s) {
				released = true
			}
		case *ast.LabeledStmt:
			r, t := walkPin(pass, pin, []ast.Stmt{s.Stmt}, released, loopDepth)
			if t {
				return r, true
			}
			released = r
		default:
			if stmtReleases(pass, pin, stmt) {
				released = true
			}
		}
	}
	return released, false
}
