// Package lint is the workflowlint suite: custom static analyzers that
// enforce the workflow invariants this repository's correctness
// arguments rest on and reviewers previously had to police by hand.
//
// The contract, in one paragraph: restarted runs must be bit-identical
// (so result-producing packages may not consult ambient nondeterminism —
// global RNGs, wall clocks, map iteration order); data products must be
// committed atomically with fsync-before-rename (so a crash can never
// tear a file a resume will trust); write-path Close errors must be
// propagated (a failed flush is data loss, not noise); locks must be
// released on every path and never held across channel operations (the
// in-process MPI mesh deadlocks otherwise); and sentinel errors must be
// matched with errors.Is and wrapped with %w (torn-file salvage keys off
// them).
//
// Each analyzer documents its precise rule. All of them honor
// suppression comments of the form
//
//	//lint:allow <analyzer> <reason>
//
// placed on, or on the line immediately above, the flagged code. A
// reason is required by convention: suppressions are audit points.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzers returns the full workflowlint suite in stable order, one
// analyzer per invariant: LockOrder is the only lock analyzer, DetTaint
// the only determinism analyzer. CallGraph, CtrlFlow and SSAFlow are
// infrastructure, pulled in via Requires, and are deliberately not
// listed.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		AtomicWrite,
		CloseCheck,
		SentinelWrap,
		MPICollective,
		GoroutineLeak,
		ErrFlow,
		LockOrder,
		DetTaint,
		AllocBound,
		ShareCapture,
	}
}

// isTestFile reports whether pos lies in a _test.go file. Test-only code
// is exempt from the product-path invariants (tests seed their own RNGs
// and write scratch files freely).
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-z, ]+)`)

// allowedLines maps, for one file, source lines to the analyzer names
// suppressed on them. A //lint:allow comment applies to its own line and
// to the line below it (for comment-above-statement style).
func allowedLines(fset *token.FileSet, f *ast.File, analyzer string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			names := strings.FieldsFunc(m[1], func(r rune) bool { return r == ',' || r == ' ' })
			hit := false
			for _, n := range names {
				if n == analyzer || n == "all" {
					hit = true
				}
			}
			if !hit {
				continue
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// reporter wraps a Pass with //lint:allow suppression: diagnostics on an
// allowed line are swallowed.
type reporter struct {
	pass  *analysis.Pass
	allow map[*ast.File]map[int]bool
}

func newReporter(pass *analysis.Pass) *reporter {
	r := &reporter{pass: pass, allow: map[*ast.File]map[int]bool{}}
	for _, f := range pass.Files {
		r.allow[f] = allowedLines(pass.Fset, f, pass.Analyzer.Name)
	}
	return r
}

func (r *reporter) reportf(pos token.Pos, format string, args ...any) {
	r.report(analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// report delivers a full diagnostic (suggested fixes included) through
// the same //lint:allow suppression as reportf.
func (r *reporter) report(d analysis.Diagnostic) {
	line := r.pass.Fset.Position(d.Pos).Line
	for f, lines := range r.allow {
		if f.FileStart <= d.Pos && d.Pos < f.FileEnd {
			if lines[line] {
				return
			}
			break
		}
	}
	r.pass.Report(d)
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or function), or nil for indirect/builtin calls.
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

// isPkgFunc reports whether fn is the package-level function pkgPath.name
// (not a method).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// funcBodies yields every function body in the files — declarations and
// literals, nested literals included as their own entries. Pair with
// bodyNodes, which does not descend into nested literals, so each body
// is scanned exactly once and in its own scope.
func funcBodies(files []*ast.File, visit func(name string, body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn.Name.Name, fn.Body)
				}
			case *ast.FuncLit:
				visit("func literal", fn.Body)
			}
			return true
		})
	}
}

// bodyNodes visits the nodes of one function body in preorder, skipping
// nested function literals (funcBodies yields those separately).
func bodyNodes(body *ast.BlockStmt, visit func(n ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// exprString renders a (small) expression back to source, used to key
// lock receivers like "s.mu" or "w.reduceMu".
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return "?"
	}
}

// typeHasMutex reports whether t (after following named types) is or
// contains a sync.Mutex/RWMutex by value, recursively through struct
// fields and arrays.
func typeHasMutex(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex" || obj.Name() == "WaitGroup" || obj.Name() == "Cond" || obj.Name() == "Once" || obj.Name() == "Pool") {
			return true
		}
		return typeHasMutex(named.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeHasMutex(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return typeHasMutex(u.Elem(), seen)
	}
	return false
}

// isNamedIn matches *T or T where T is the type called name declared in
// a package called pkg (name-matched so fixture stubs participate).
func isNamedIn(t types.Type, pkg, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == pkg
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorInterface) ||
		types.Implements(types.NewPointer(t), errorInterface)
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
