package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// SentinelWrap enforces the error-matching contract the torn-file
// salvage path depends on: gio.ErrTruncated / gio.ErrChecksum (and every
// other exported sentinel) travel through wrapping layers, so identity
// comparison silently stops matching the moment anyone adds context.
// Two rules:
//
//  1. a sentinel error (a package-level error variable named Err* or
//     EOF) compared with == or != — or matched in a switch over an
//     error value — must use errors.Is instead;
//  2. fmt.Errorf with at least one error-typed argument must wrap with
//     %w somewhere in its format: a %v/%s-only Errorf severs the chain
//     and downstream errors.Is stops seeing the sentinel. (An Errorf
//     that does contain a %w may freely format other errors with %v —
//     that is how gio deliberately maps io.EOF onto ErrTruncated without
//     wrapping it.)
var SentinelWrap = &analysis.Analyzer{
	Name: "sentinelwrap",
	Doc:  "require errors.Is for sentinel comparison and %w when fmt.Errorf propagates an error",
	Run:  runSentinelWrap,
}

func runSentinelWrap(pass *analysis.Pass) error {
	r := newReporter(pass)
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					if name, ok := sentinelErrorVar(info, side); ok {
						r.reportf(n.Pos(),
							"sentinel error %s compared with %s; wrapped errors will not match — use errors.Is",
							name, n.Op)
						break
					}
				}
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				tv, ok := info.Types[n.Tag]
				if !ok || !isErrorType(tv.Type) {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if name, ok := sentinelErrorVar(info, e); ok {
							r.reportf(e.Pos(),
								"switch matches sentinel error %s by identity; wrapped errors will not match — use errors.Is",
								name)
						}
					}
				}
			case *ast.CallExpr:
				checkErrorfWrap(pass, r, n)
			}
			return true
		})
	}
	return nil
}

// sentinelErrorVar reports whether e refers to a package-level error
// variable following the sentinel naming convention (Err* or EOF).
func sentinelErrorVar(info *types.Info, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return "", false
	}
	if v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	if !isErrorType(v.Type()) {
		return "", false
	}
	name := v.Name()
	if !strings.HasPrefix(name, "Err") && name != "EOF" {
		return "", false
	}
	if v.Pkg().Name() == "main" {
		return name, true
	}
	return v.Pkg().Name() + "." + name, true
}

// checkErrorfWrap applies rule 2 to one call.
func checkErrorfWrap(pass *analysis.Pass, r *reporter, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if !isPkgFunc(fn, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	if strings.Contains(lit.Value, "%w") {
		return
	}
	for i, arg := range call.Args[1:] {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		if isErrorType(tv.Type) {
			d := analysis.Diagnostic{
				Pos:     call.Pos(),
				Message: "fmt.Errorf formats an error without %w: the chain is severed and errors.Is stops matching sentinels; use %w (or //lint:allow sentinelwrap at a deliberate boundary)",
			}
			if fix, ok := errorfWrapFix(lit, i); ok {
				d.SuggestedFixes = []analysis.SuggestedFix{fix}
			}
			r.report(d)
			return
		}
	}
}

// errorfWrapFix rewrites the verb that formats the error operand at
// index errIdx (0-based, among the operands after the format string)
// from %v or %s to %w. It walks the literal's source text so the edit
// lands on the exact verb byte; anything that complicates the
// operand↔verb mapping — `*` width/precision, explicit `%[n]` indexes,
// a verb other than v/s — means no fix, only the diagnostic.
func errorfWrapFix(lit *ast.BasicLit, errIdx int) (analysis.SuggestedFix, bool) {
	src := lit.Value
	operand := 0
	for i := 0; i < len(src); i++ {
		if src[i] != '%' {
			continue
		}
		i++
		if i >= len(src) {
			return analysis.SuggestedFix{}, false
		}
		if src[i] == '%' {
			continue
		}
		for i < len(src) && strings.ContainsRune("+-# 0", rune(src[i])) {
			i++
		}
		for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
			i++
		}
		if i >= len(src) {
			return analysis.SuggestedFix{}, false
		}
		switch c := src[i]; {
		case c == '*' || c == '[':
			return analysis.SuggestedFix{}, false
		case operand == errIdx:
			if c != 'v' && c != 's' {
				return analysis.SuggestedFix{}, false
			}
			pos := lit.Pos() + token.Pos(i)
			return analysis.SuggestedFix{
				Message: "wrap the error with %w so errors.Is keeps matching",
				TextEdits: []analysis.TextEdit{{
					Pos:     pos,
					End:     pos + 1,
					NewText: []byte("w"),
				}},
			}, true
		}
		operand++
	}
	return analysis.SuggestedFix{}, false
}
