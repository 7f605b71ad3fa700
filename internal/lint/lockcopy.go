package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// checkLockCopies is lockorder's syntactic rule: locks are never copied
// by value — function receivers, parameters, results, plain
// assignments, and range variables of types that contain a
// sync.Mutex/RWMutex (or Cond/WaitGroup/Once/Pool) by value are
// flagged. A copied lock guards nothing, so no held-lock solution over
// it means anything.
func checkLockCopies(pass *analysis.Pass, r *reporter, f *ast.File) {
	info := pass.TypesInfo
	flagIdent := func(id *ast.Ident, what string) {
		obj := info.Defs[id]
		if obj == nil || obj.Type() == nil {
			return
		}
		if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
			return
		}
		if typeHasMutex(obj.Type(), map[types.Type]bool{}) {
			r.reportf(id.Pos(), "%s %q copies a lock: %s contains a sync primitive; pass a pointer",
				what, id.Name, types.TypeString(obj.Type(), types.RelativeTo(pass.Pkg)))
		}
	}
	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				flagIdent(id, what)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkFieldList(n.Recv, "receiver")
			checkFieldList(n.Type.Params, "parameter")
			checkFieldList(n.Type.Results, "result")
		case *ast.FuncLit:
			checkFieldList(n.Type.Params, "parameter")
			checkFieldList(n.Type.Results, "result")
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if lhs, ok := n.Lhs[i].(*ast.Ident); ok && lhs.Name == "_" {
					continue // discard, not a live copy
				}
				if !copiesExistingValue(rhs) {
					continue
				}
				t := info.Types[rhs].Type
				if t == nil {
					continue
				}
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					continue
				}
				if typeHasMutex(t, map[types.Type]bool{}) {
					r.reportf(rhs.Pos(), "assignment copies a lock: %s contains a sync primitive; use a pointer",
						types.TypeString(t, types.RelativeTo(pass.Pkg)))
				}
			}
		case *ast.RangeStmt:
			if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
				if obj := info.Defs[id]; obj != nil && obj.Type() != nil &&
					typeHasMutex(obj.Type(), map[types.Type]bool{}) {
					r.reportf(id.Pos(), "range variable %q copies a lock per iteration: %s contains a sync primitive; range over indices or pointers",
						id.Name, types.TypeString(obj.Type(), types.RelativeTo(pass.Pkg)))
				}
			}
		}
		return true
	})
}

// copiesExistingValue reports whether an expression re-reads an existing
// value (and so copies it), as opposed to constructing a fresh one.
func copiesExistingValue(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name != "nil"
	case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	default:
		return false
	}
}
