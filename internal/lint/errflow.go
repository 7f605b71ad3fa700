package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// ErrFlow tracks write/IO errors interprocedurally from the persistence
// kernel outward and forbids discarding them. The roots are the product
// write entry points (productWriteRoot in scope.go, the table dettaint's
// sinks share) that return an error. Any function, in any package,
// that (transitively) calls a root and itself returns an error carries
// the "propagates write errors" fact; the fact crosses package
// boundaries through the driver's fact store.
//
// A call site discards such an error when the call is a bare statement,
// a `go`/`defer` statement, or an assignment with `_` in every
// error-typed result position. Additionally — flow-sensitively, over
// each function's CFG — an error captured into a variable is flagged when
// some path to function exit neither reads it nor overwrites-after-
// reading it (a write error checked on every path is clean; one
// dropped on any path is not). A dropped write error is silent data
// loss: the campaign resumes trusting a product that never reached the
// disk. Deliberate discards (best-effort cleanup) take
// //lint:allow errflow with justification.
//
// Test files are exempt — tests write scratch data and assert through
// other means.
var ErrFlow = &analysis.Analyzer{
	Name:      "errflow",
	Doc:       "forbid discarding errors that propagate from the fs/gio/ckpt/catalog write entry points",
	Run:       runErrFlow,
	FactTypes: []analysis.Fact{(*WriteErrorSource)(nil)},
}

// WriteErrorSource is the transitive fact: errors returned by this
// function originate (at least in part) at these write entry points.
type WriteErrorSource struct {
	Roots []string // sorted unique "pkg.Func" root names
}

func (*WriteErrorSource) AFact() {}

// errflowRoot reports whether fn is a write entry point whose error
// must not be dropped, and its label.
func errflowRoot(fn *types.Func) (string, bool) {
	if !productWriteRoot(fn) || !returnsError(fn) {
		return "", false
	}
	return fn.Pkg().Name() + "." + fn.Name(), true
}

// returnsError reports whether fn's signature includes an error result.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func runErrFlow(pass *analysis.Pass) error {
	r := newReporter(pass)

	// Phase 1: transitive write-error sources for this package's
	// functions. A function propagates iff it returns an error and calls
	// a root or a propagator.
	calleeRoots := closure(pass, labelClosure{
		seed: func(f *analysis.Func) map[string]bool {
			if !returnsError(f.Fn) {
				return nil
			}
			return map[string]bool{}
		},
		direct: errflowRoot,
		imported: func(fn *types.Func) []string {
			var fact WriteErrorSource
			pass.ImportObjectFact(fn, &fact)
			return fact.Roots
		},
		export: func(fn *types.Func, roots []string) {
			pass.ExportObjectFact(fn, &WriteErrorSource{Roots: roots})
		},
	})

	// siteRoots resolves a call expression to the write roots whose
	// errors it can return.
	siteRoots := func(call *ast.CallExpr) (*types.Func, []string) {
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil {
			return nil, nil
		}
		set := calleeRoots(fn)
		if len(set) == 0 {
			return nil, nil
		}
		return fn, sortedKeys(set)
	}

	// Phase 2: discarded-error call sites, non-test files only.
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					reportDiscard(pass, r, call, "discarded", siteRoots)
				}
				return false
			case *ast.GoStmt:
				reportDiscard(pass, r, n.Call, "discarded by go statement", siteRoots)
			case *ast.DeferStmt:
				reportDiscard(pass, r, n.Call, "discarded by defer", siteRoots)
			case *ast.AssignStmt:
				checkBlankError(pass, r, n, siteRoots)
			}
			return true
		})
	}

	// Phase 3 (flow-sensitive): write errors captured into variables
	// must be consumed on every path to exit.
	for _, fc := range pass.Funcs() {
		if isTestFile(pass.Fset, fc.Body.Pos()) {
			continue
		}
		checkCapturedErrors(pass, r, fc, siteRoots)
	}
	return nil
}

// checkCapturedErrors flags assignments that capture a write error into
// a variable some path then drops: the variable is not read (before
// being overwritten) on every path from the assignment to exit. Bare
// returns in named-result functions count as reads of the result.
func checkCapturedErrors(pass *analysis.Pass, r *reporter, fc *analysis.Func, siteRoots func(*ast.CallExpr) (*types.Func, []string)) {
	info := pass.TypesInfo
	for _, blk := range fc.CFG.Blocks {
		if !blk.Live {
			continue
		}
		for _, n := range blk.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn, roots := siteRoots(call)
			if fn == nil {
				continue
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Results().Len() != len(as.Lhs) {
				continue
			}
			for i := 0; i < sig.Results().Len(); i++ {
				if !isErrorType(sig.Results().At(i).Type()) {
					continue
				}
				id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if !consumedAfter(info, fc, obj, true)[n] {
					r.reportf(as.Pos(),
						"error of %s assigned to %s but not checked on every path: it propagates write errors from %s; a dropped write error is silent data loss",
						fn.Name(), id.Name, strings.Join(roots, ", "))
				}
			}
		}
	}
}

// reportDiscard flags a call whose error results all vanish (statement
// position: nothing is assigned).
func reportDiscard(pass *analysis.Pass, r *reporter, call *ast.CallExpr, how string, siteRoots func(*ast.CallExpr) (*types.Func, []string)) {
	fn, roots := siteRoots(call)
	if fn == nil || !returnsError(fn) {
		return
	}
	r.reportf(call.Pos(),
		"error of %s %s: it propagates write errors from %s; a dropped write error is silent data loss — handle or return it",
		fn.Name(), how, strings.Join(roots, ", "))
}

// checkBlankError flags assignments that route every error result of a
// write-error-propagating call into the blank identifier.
func checkBlankError(pass *analysis.Pass, r *reporter, as *ast.AssignStmt, siteRoots func(*ast.CallExpr) (*types.Func, []string)) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn, roots := siteRoots(call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	// Multi-value form: len(Lhs) == results. Single error result with
	// `_ = f()` is the len==1 case of the same loop.
	if sig.Results().Len() != len(as.Lhs) {
		return
	}
	anyError := false
	allBlank := true
	for i := 0; i < sig.Results().Len(); i++ {
		if !isErrorType(sig.Results().At(i).Type()) {
			continue
		}
		anyError = true
		if id, ok := as.Lhs[i].(*ast.Ident); !ok || id.Name != "_" {
			allBlank = false
		}
	}
	if anyError && allBlank {
		r.reportf(as.Pos(),
			"error of %s assigned to _: it propagates write errors from %s; a dropped write error is silent data loss — handle or return it",
			fn.Name(), strings.Join(roots, ", "))
	}
}
