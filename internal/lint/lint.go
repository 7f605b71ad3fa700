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
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzers returns the full workflowlint suite in stable order, one
// analyzer per invariant: LockOrder is the only lock analyzer, DetTaint
// the only determinism analyzer. The call sites and control-flow graphs
// they share come from the package's function index (Pass.Funcs), not
// from analyzers of their own.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		AtomicWrite,
		CloseCheck,
		SentinelWrap,
		ErrFlow,
		LockOrder,
		DetTaint,
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

// isPkgFunc reports whether fn is the package-level function pkgPath.name
// (not a method).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// sortedKeys returns set's keys in sorted order, so that facts and
// diagnostics built from a set do not depend on map iteration.
func sortedKeys[V any](set map[string]V) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
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
