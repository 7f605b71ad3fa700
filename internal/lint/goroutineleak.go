package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// GoroutineLeak guards the concurrency layers (rankExchangePkgs — the
// packages whose goroutines outlive a bug silently) against orphaned
// goroutines. Two rules:
//
//  1. a `go func(){...}()` literal must carry completion evidence inside
//     the literal: a sync.WaitGroup Done (the Add/Wait pair lives in the
//     spawner), a send or close on a channel (someone joins by
//     receiving), a receive or range over a channel (the goroutine is
//     drained by channel close), or a select (stop-channel / context
//     patterns). A literal with none of these can never be joined — it
//     either leaks or races with process exit;
//  2. a send on an unbuffered channel from inside a spawned goroutine is
//     flagged when the enclosing function can return before any receive
//     on that channel: either there is no receive at all, or a `return`
//     sits between the `go` statement and the first receive in source
//     order. The goroutine blocks on the send forever once the only
//     receiver has left. Buffer the channel (the result-slot idiom) or
//     receive on every path.
//
// Rule 2 is a token-order approximation, not a CFG analysis; channels
// that escape the function (passed to a call, stored in a struct,
// returned) are not tracked. Deliberate fire-and-forget goroutines take
// //lint:allow goroutineleak with a justification.
var GoroutineLeak = &analysis.Analyzer{
	Name: "goroutineleak",
	Doc:  "forbid unjoined goroutines and unbuffered sends that outlive their receiver in the concurrency packages",
	Run:  runGoroutineLeak,
}

func runGoroutineLeak(pass *analysis.Pass) (any, error) {
	if !rankExchangePkgs[pass.Pkg.Name()] {
		return nil, nil
	}
	r := newReporter(pass)
	for _, f := range pass.Files {
		funcBodies([]*ast.File{f}, func(name string, body *ast.BlockStmt) {
			checkGoStmts(pass, r, body)
			checkUnbufferedSends(pass, r, body)
		})
	}
	return nil, nil
}

// --- rule 1: join evidence inside go func literals ---

func checkGoStmts(pass *analysis.Pass, r *reporter, body *ast.BlockStmt) {
	bodyNodes(body, func(n ast.Node) {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return
		}
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			// go m.run() — the body is elsewhere; out of scope for this
			// syntactic rule (the literal form is where leaks are written).
			return
		}
		if hasJoinEvidence(pass.TypesInfo, lit.Body) {
			return
		}
		r.reportf(gs.Pos(),
			"goroutine has no completion signal: tie it to a sync.WaitGroup Done, a channel send/close, or a stop-channel select so it can be joined")
	})
}

// hasJoinEvidence scans a goroutine body (nested literals included) for
// any construct that ties its lifetime to the outside.
func hasJoinEvidence(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && fn.Name() == "Done" &&
				fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				found = true
			}
			if fn, ok := info.Uses[funIdent(n)].(*types.Builtin); ok && fn.Name() == "close" {
				found = true
			}
		}
		return !found
	})
	return found
}

func funIdent(call *ast.CallExpr) *ast.Ident {
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	return id
}

// --- rule 2: unbuffered sends vs early returns ---

func checkUnbufferedSends(pass *analysis.Pass, r *reporter, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// Unbuffered channels created and used only locally in this body.
	type chanInfo struct {
		name    string
		escapes bool
		sends   []token.Pos // sends inside spawned goroutines
		recvs   []token.Pos // receives in the enclosing body (outside go literals)
		goPos   token.Pos   // the go statement whose goroutine sends on it
	}
	chans := map[types.Object]*chanInfo{}
	var order []*chanInfo // declaration order, for deterministic reports

	bodyNodes(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isUnbufferedMake(info, call) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				ci := &chanInfo{name: id.Name}
				chans[obj] = ci
				order = append(order, ci)
			}
		}
	})
	if len(chans) == 0 {
		return
	}

	lookup := func(e ast.Expr) *chanInfo {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		return chans[info.Uses[id]]
	}

	// Classify every use. Escape = any appearance that is not a send,
	// receive, range, close, or len/cap on the bare ident. goPos records
	// the go statement whose literal performs the send, so the early-
	// return window is measured from the actual spawn site.
	var scan func(n ast.Node, goPos token.Pos)
	scan = func(root ast.Node, goPos token.Pos) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					scan(lit.Body, n.Pos())
					// Arguments are evaluated in the spawning goroutine.
					for _, arg := range n.Call.Args {
						scan(arg, goPos)
					}
					return false
				}
			case *ast.SendStmt:
				if ci := lookup(n.Chan); ci != nil {
					if goPos != token.NoPos {
						ci.sends = append(ci.sends, n.Pos())
						if ci.goPos == token.NoPos {
							ci.goPos = goPos
						}
					}
					scan(n.Value, goPos)
					return false
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if ci := lookup(n.X); ci != nil {
						if goPos == token.NoPos {
							ci.recvs = append(ci.recvs, n.Pos())
						}
						return false
					}
				}
			case *ast.RangeStmt:
				if ci := lookup(n.X); ci != nil {
					if goPos == token.NoPos {
						ci.recvs = append(ci.recvs, n.Pos())
					}
					// Visit the body but not X (a range is a receive, not
					// an escape).
					scan(n.Body, goPos)
					return false
				}
			case *ast.CallExpr:
				if fn, ok := info.Uses[funIdent(n)].(*types.Builtin); ok {
					switch fn.Name() {
					case "close", "len", "cap":
						if len(n.Args) == 1 && lookup(n.Args[0]) != nil {
							return false
						}
					}
				}
				for _, arg := range n.Args {
					if ci := lookup(arg); ci != nil {
						ci.escapes = true
					}
				}
			case *ast.Ident:
				// Bare mention outside the handled shapes (assignment to
				// another name, struct literal, return value…): escape.
				if ci := chans[info.Uses[n]]; ci != nil {
					ci.escapes = true
				}
			}
			return true
		})
	}
	scan(body, token.NoPos)

	// Returns in the enclosing body (outside literals). A return whose
	// own expression receives (`return <-ch`) is a receive, not an
	// escape hatch, so spans are kept to exclude those below.
	type retSpan struct{ pos, end token.Pos }
	var returns []retSpan
	bodyNodes(body, func(n ast.Node) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			returns = append(returns, retSpan{ret.Pos(), ret.End()})
		}
	})

	for _, ci := range order {
		if ci.escapes || len(ci.sends) == 0 {
			continue
		}
		if len(ci.recvs) == 0 {
			for _, pos := range ci.sends {
				r.reportf(pos,
					"send on unbuffered channel %q from a goroutine with no receive in the spawning function: the send blocks forever; buffer the channel or receive the result",
					ci.name)
			}
			continue
		}
		firstRecv := ci.recvs[0]
		for _, rp := range ci.recvs[1:] {
			if rp < firstRecv {
				firstRecv = rp
			}
		}
		for _, ret := range returns {
			if ret.pos <= firstRecv && firstRecv < ret.end {
				continue // the return receives the value itself
			}
			if ci.goPos != token.NoPos && ret.pos > ci.goPos && ret.pos < firstRecv {
				for _, pos := range ci.sends {
					r.reportf(pos,
						"send on unbuffered channel %q can block forever: the spawning function may return (an early return precedes the first receive) and the goroutine leaks; buffer the channel or receive on every path",
						ci.name)
				}
				break
			}
		}
	}
}

// isUnbufferedMake matches make(chan T) and make(chan T, 0).
func isUnbufferedMake(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := info.Uses[funIdent(call)].(*types.Builtin)
	if !ok || fn.Name() != "make" || len(call.Args) == 0 {
		return false
	}
	t := info.Types[call.Args[0]].Type
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return false
	}
	if len(call.Args) == 1 {
		return true
	}
	tv := info.Types[call.Args[1]]
	return tv.Value != nil && tv.Value.String() == "0"
}
