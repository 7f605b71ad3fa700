package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// CloseCheck polices the error of Close on write-side handles. For
// buffered or journaled writers the error surfaced at Close is the one
// that says the final flush reached the kernel; discarding it converts
// write failure into silent data loss. Tracked handles, non-test files
// only:
//
//   - *os.File values obtained in the same function from os.Create,
//     os.CreateTemp, or a writable os.OpenFile;
//   - any value whose static type is the crash-consistency journal
//     (*ckpt.Journal) — its Close error reports the final fsync's fate.
//
// The rules are flow-sensitive (CFG + dataflow over the ctrlflow pass):
//
//  1. `defer f.Close()` is flagged unless every path from the defer to
//     function exit either consumes a Close error (return f.Close(),
//     cerr := f.Close(), ...) or exits through an `if err != nil`
//     error return — so the belt-and-braces idiom (deferred backstop
//     close plus a checked close on the success path) is clean;
//  2. a bare `f.Close()` statement (or `_ = f.Close()`) is flagged
//     unless it sits inside an `if err != nil` cleanup block — the
//     error path already reports a failure, best-effort close is fine
//     there;
//  3. a captured close error (cerr := f.Close()) is flagged when no
//     path reads it afterwards; the `if err == nil { err = cerr }`
//     idiom reads it on one branch and is clean.
//
// The canonical fix is the named-return capture:
//
//	defer func() {
//		if cerr := f.Close(); err == nil {
//			err = cerr
//		}
//	}()
//
// Diagnostics on rule 1 carry a suggested fix rewriting the defer to
// that idiom when the enclosing function has a named error result
// `err` (applied by `workflowlint -fix`).
var CloseCheck = &analysis.Analyzer{
	Name:     "closecheck",
	Doc:      "forbid dropping the Close error of write-opened files and journals on any path",
	Run:      runCloseCheck,
	Requires: []*analysis.Analyzer{CtrlFlow},
}

func runCloseCheck(pass *analysis.Pass) (any, error) {
	flow := pass.ResultOf[CtrlFlow].(*CFGResult)
	r := newReporter(pass)
	for _, fc := range flow.Order {
		if isTestFile(pass.Fset, fc.Body.Pos()) {
			continue
		}
		checkCloses(pass, r, fc)
	}
	return nil, nil
}

// closeKind distinguishes the two tracked handle classes for messages.
type closeKind int

const (
	closeFile closeKind = iota
	closeJournal
)

// closeCall is one recv.Close() on a tracked handle.
type closeCall struct {
	call *ast.CallExpr
	recv ast.Expr
	key  string // exprString(recv): handle identity within the function
	kind closeKind
}

func checkCloses(pass *analysis.Pass, r *reporter, fc *FuncCFG) {
	info := pass.TypesInfo
	body := fc.Body

	// Objects bound from write-opening calls in this body.
	writeOpened := map[types.Object]bool{}
	bodyNodes(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(info, call)
		opensForWrite := isPkgFunc(fn, "os", "Create") || isPkgFunc(fn, "os", "CreateTemp") ||
			(isPkgFunc(fn, "os", "OpenFile") && openFileWritable(call))
		if !opensForWrite {
			return
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				writeOpened[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				writeOpened[obj] = true
			}
		}
	})

	// trackedClose classifies a call as recv.Close() on a tracked handle.
	trackedClose := func(call *ast.CallExpr) (closeCall, bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" || len(call.Args) != 0 {
			return closeCall{}, false
		}
		recv := ast.Unparen(sel.X)
		if isCkptJournal(info.Types[recv].Type) {
			return closeCall{call: call, recv: recv, key: exprString(recv), kind: closeJournal}, true
		}
		if id, ok := recv.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && writeOpened[obj] {
				return closeCall{call: call, recv: recv, key: id.Name, kind: closeFile}, true
			}
		}
		return closeCall{}, false
	}

	// nodeCloses finds the tracked closes inside one CFG node, skipping
	// function-literal bodies (their closes belong to their own CFGs).
	nodeCloses := func(n ast.Node) []closeCall {
		var out []closeCall
		ast.Inspect(n, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := x.(*ast.CallExpr); ok {
				if cc, ok := trackedClose(call); ok {
					out = append(out, cc)
				}
			}
			return true
		})
		return out
	}

	// Classify a node's syntactic relationship to a close it contains.
	isBareClose := func(n ast.Node, cc closeCall) bool {
		if es, ok := n.(*ast.ExprStmt); ok {
			return ast.Unparen(es.X) == cc.call
		}
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && ast.Unparen(as.Rhs[0]) == cc.call {
			allBlank := true
			for _, lhs := range as.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
				}
			}
			return allBlank
		}
		return false
	}
	isDeferredClose := func(n ast.Node, cc closeCall) bool {
		def, ok := n.(*ast.DeferStmt)
		return ok && def.Call == cc.call
	}

	inGuard, errReturns := guardedErrorNodes(info, body)

	// okAfter solves, per handle key, the backward must-analysis "every
	// path from here consumes a Close error of this handle or exits
	// through a guarded error return", and returns ok-ness after each
	// node. Solutions are computed lazily, once per key.
	okAfterByKey := map[string]map[ast.Node]bool{}
	okAfter := func(key string) map[ast.Node]bool {
		if m, ok := okAfterByKey[key]; ok {
			return m
		}
		m := stateAfter(fc, true, func(n ast.Node, state bool) bool {
			if errReturns[n] {
				return true
			}
			for _, cc := range nodeCloses(n) {
				if cc.key == key && !isBareClose(n, cc) && !isDeferredClose(n, cc) {
					return true
				}
			}
			return state
		})
		okAfterByKey[key] = m
		return m
	}

	message := func(cc closeCall, how string) string {
		if cc.kind == closeJournal {
			return how + " discards the journal's close error (the final fsync's verdict); capture it into a named return or log it"
		}
		return how + " discards the close error on a file opened for writing; a failed flush is silent data loss — capture it into a named return"
	}

	for _, blk := range fc.G.Blocks {
		if !blk.Live {
			continue
		}
		for _, n := range blk.Nodes {
			for _, cc := range nodeCloses(n) {
				switch {
				case isDeferredClose(n, cc):
					if !okAfter(cc.key)[n] {
						d := analysis.Diagnostic{
							Pos:     n.Pos(),
							Message: message(cc, "defer "+cc.key+".Close()"),
						}
						if fix, ok := deferCloseFix(pass, fc, n.(*ast.DeferStmt), cc); ok {
							d.SuggestedFixes = []analysis.SuggestedFix{fix}
						}
						r.report(d)
					}
				case isBareClose(n, cc):
					if !inGuard[n] {
						r.reportf(n.Pos(), "%s", message(cc, cc.key+".Close()"))
					}
				default:
					// Captured close: flagged when no path reads the
					// captured error afterwards.
					if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && ast.Unparen(as.Rhs[0]) == cc.call && len(as.Lhs) == 1 {
						if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
							obj := info.Defs[id]
							if obj == nil {
								obj = info.Uses[id]
							}
							if obj != nil && !consumedAfter(info, fc, obj, false)[n] {
								r.reportf(n.Pos(), "close error of %s captured into %s but never checked afterwards; a failed flush is silent data loss",
									cc.key, id.Name)
							}
						}
					}
				}
			}
		}
	}
}

// deferCloseFix builds the named-return capture rewrite for a flagged
// `defer f.Close()`: it applies only when the enclosing function has a
// named error result `err` (so the capture compiles) and the receiver
// renders cleanly.
func deferCloseFix(pass *analysis.Pass, fc *FuncCFG, def *ast.DeferStmt, cc closeCall) (analysis.SuggestedFix, bool) {
	recv := exprString(cc.recv)
	if recv == "?" || !hasNamedErrResult(pass.TypesInfo, fc) {
		return analysis.SuggestedFix{}, false
	}
	newText := "defer func() { cerr := " + recv + ".Close(); if err == nil { err = cerr } }()"
	return analysis.SuggestedFix{
		Message: "capture the close error into the named error return",
		TextEdits: []analysis.TextEdit{{
			Pos:     def.Pos(),
			End:     def.End(),
			NewText: []byte(newText),
		}},
	}, true
}

// hasNamedErrResult reports whether fc's result list includes an
// error-typed result named exactly "err".
func hasNamedErrResult(info *types.Info, fc *FuncCFG) bool {
	for _, id := range fc.resultNames() {
		if id.Name == "err" {
			if obj := info.Defs[id]; obj != nil && isErrorType(obj.Type()) {
				return true
			}
		}
	}
	return false
}

// isCkptJournal matches the crash-consistency journal type.
func isCkptJournal(t types.Type) bool { return isNamedIn(t, "ckpt", "Journal") }
