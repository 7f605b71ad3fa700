package analysis

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis/cfg"
)

// A Func is one entry of a package's function index: a declaration or a
// function literal, its control-flow graph and the static calls its own
// body makes (calls inside nested literals belong to the literal's
// entry).
type Func struct {
	Body  *ast.BlockStmt
	Decl  *ast.FuncDecl // nil for function literals
	Lit   *ast.FuncLit  // nil for declarations
	Fn    *types.Func   // the declared object; nil for literals
	Outer *Func         // the enclosing function; nil for declarations
	CFG   *cfg.CFG
	Calls []Call
}

// A Call is one resolved static call site.
type Call struct {
	Callee *types.Func
	Site   *ast.CallExpr
}

// Callee resolves a call expression to the *types.Func it names
// (function or method, interface methods included), or nil for calls
// through function values, conversions and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
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

// buildIndex lists every function declaration with a body and every
// function literal in files, in source order (a literal follows the
// function it is nested in). A call site gets an entry in Calls when its
// callee is statically known: calls through function values and
// interface methods resolve to no body and give none.
func buildIndex(files []*ast.File, info *types.Info) []*Func {
	var funcs []*Func
	var walk func(outer *Func, root ast.Node)
	add := func(f *Func) {
		f.CFG = cfg.Build(f.Body)
		funcs = append(funcs, f)
		walk(f, f.Body)
	}
	walk = func(outer *Func, root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn, _ := info.Defs[n.Name].(*types.Func)
					add(&Func{Body: n.Body, Decl: n, Fn: fn})
				}
				return false
			case *ast.FuncLit:
				add(&Func{Body: n.Body, Lit: n, Outer: outer})
				return false
			case *ast.CallExpr:
				if callee := Callee(info, n); outer != nil && callee != nil && !isInterfaceMethod(callee) {
					outer.Calls = append(outer.Calls, Call{Callee: callee, Site: n})
				}
			}
			return true
		})
	}
	for _, f := range files {
		walk(nil, f)
	}
	return funcs
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}
