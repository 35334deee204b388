package lint

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves the function or method a call expression invokes,
// or nil for calls through function values, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// namedRecv returns the named type of fn's receiver (dereferencing a
// pointer receiver), or nil if fn is not a method.
func namedRecv(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	named, _ := derefType(sig.Recv().Type()).(*types.Named)
	return named
}

// derefType strips one pointer level.
func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// fieldSelection resolves expr as a field selection and returns the field
// variable plus the named type that declares it, or nils. Handles both
// `x.f` on a value/pointer of a named struct type and plain package-level
// variable references (declared == nil in that case).
func fieldSelection(info *types.Info, expr ast.Expr) (field *types.Var, owner *types.Named) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		sel, ok := info.Selections[e]
		if !ok {
			// Qualified identifier (pkg.Var): Uses on the Sel.
			if v, ok := info.Uses[e.Sel].(*types.Var); ok {
				return v, nil
			}
			return nil, nil
		}
		v, ok := sel.Obj().(*types.Var)
		if !ok || !v.IsField() {
			return nil, nil
		}
		// A field promoted through embedding (z.mu where z embeds the struct
		// that declares mu) belongs to the embedded type, not the receiver:
		// follow the selection's path down to the declaring struct.
		t := derefType(sel.Recv())
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return v, nil
			}
			t = derefType(st.Field(i).Type())
		}
		named, _ := t.(*types.Named)
		return v, named
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && !v.IsField() {
			return v, nil
		}
	}
	return nil, nil
}

// pkgPathOf returns obj's package path, "" for universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// enclosingFuncName returns the name of the innermost function declaration
// enclosing pos within file: the method/function name for declarations,
// or the nearest named enclosing declaration for function literals.
func enclosingFuncName(file *ast.File, pos ast.Node) string {
	name := ""
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if fd, ok := n.(*ast.FuncDecl); ok {
			if fd.Pos() <= pos.Pos() && pos.End() <= fd.End() {
				name = fd.Name.Name
			}
		}
		return true
	})
	return name
}

// returnsError reports whether fn has at least one error result.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}
