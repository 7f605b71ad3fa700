package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis/cfg"
)

// This file holds what the flow-sensitive closecheck and errflow rules
// share: the one-bit backward solve both are phrased in (stateAfter),
// and the value-consumption question built on it — given a variable and
// a function CFG, compute at every program point whether the variable's
// current value is read before being overwritten on the way to function
// exit ("liveness of this one value"). Two join modes: must (read on
// every path — errflow's bar for a captured write error) and may (read
// on some path — closecheck's bar for a captured close error, where the
// `if err == nil { err = cerr }` idiom deliberately reads it on one
// branch only).

// isNamedResult reports whether obj is one of fc's named result
// variables (a bare `return` then reads it).
func isNamedResult(info *types.Info, fc *FuncCFG, obj types.Object) bool {
	for _, id := range fc.resultNames() {
		if info.Defs[id] == obj {
			return true
		}
	}
	return false
}

// nodeReadsWrites classifies one CFG node against obj: reads is true if
// the node reads obj's value anywhere (including inside function
// literals — a closure capturing the variable may consume it later);
// writes is true if a top-level assignment overwrites it. Compound
// read-write nodes (err = wrap(err)) count as reads: the previous value
// is consumed before being replaced.
func nodeReadsWrites(info *types.Info, n ast.Node, obj types.Object) (reads, writes bool) {
	// Top-level (non-closure) assignment LHS idents of obj are writes.
	writeIdents := map[*ast.Ident]bool{}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		as, ok := x.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if info.Defs[id] == obj || info.Uses[id] == obj {
					writeIdents[id] = true
					writes = true
				}
			}
		}
		return true
	})
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && !writeIdents[id] && info.Uses[id] == obj {
			reads = true
		}
		return true
	})
	return reads, writes
}

// consumedAfter returns, for every CFG node of fc, whether obj's value
// immediately after that node executes is read before being overwritten
// on every (must=true) or some (must=false) path to exit.
func consumedAfter(info *types.Info, fc *FuncCFG, obj types.Object, must bool) map[ast.Node]bool {
	named := isNamedResult(info, fc, obj)
	return stateAfter(fc, must, func(n ast.Node, state bool) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok && named && len(ret.Results) == 0 {
			return true // bare return in a named-result function reads obj
		}
		reads, writes := nodeReadsWrites(info, n, obj)
		if reads {
			return true
		}
		if writes {
			return false
		}
		return state
	})
}

// stateAfter solves a one-bit backward dataflow problem over fc — step
// maps the state after a node to the state before it, exit starts
// false, and paths join by AND (must) or OR — and returns the state
// immediately after every live node.
func stateAfter(fc *FuncCFG, must bool, step func(n ast.Node, after bool) bool) map[ast.Node]bool {
	transfer := func(b *cfg.Block, out bool) bool {
		state := out
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			state = step(b.Nodes[i], state)
		}
		return state
	}
	join := func(a, b bool) bool { return a || b }
	if must {
		join = func(a, b bool) bool { return a && b }
	}
	eq := func(a, b bool) bool { return a == b }
	sol := cfg.Backward(fc.G, false, transfer, join, eq)

	after := map[ast.Node]bool{}
	for _, b := range fc.G.Blocks {
		if !b.Live {
			continue
		}
		state, ok := sol.Out[b]
		if !ok {
			continue
		}
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			after[b.Nodes[i]] = state
			state = step(b.Nodes[i], state)
		}
	}
	return after
}

// errNonNilCond reports whether cond is an `x != nil` test of an
// error-typed x — the shape that guards error-path cleanup.
func errNonNilCond(info *types.Info, cond ast.Expr) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op.String() != "!=" {
		return false
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if isNilIdent(y) {
		return isErrorType(typeOf(info, x))
	}
	if isNilIdent(x) {
		return isErrorType(typeOf(info, y))
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// guardedErrorNodes collects, over one function body, (1) the nodes
// syntactically inside an `if <err> != nil { ... }` body — the
// error-path cleanup region where a bare Close is acceptable — and
// (2) the ReturnStmts that definitely return a non-nil error: returns
// inside such a guard whose results include an error-typed expression
// other than the nil literal. Function literals are excluded (their
// bodies are separate CFGs).
func guardedErrorNodes(info *types.Info, body *ast.BlockStmt) (inGuard, errReturns map[ast.Node]bool) {
	inGuard = map[ast.Node]bool{}
	errReturns = map[ast.Node]bool{}
	bodyNodes(body, func(n ast.Node) {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !errNonNilCond(info, ifs.Cond) {
			return
		}
		ast.Inspect(ifs.Body, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if x == nil {
				return true
			}
			inGuard[x] = true
			if ret, ok := x.(*ast.ReturnStmt); ok && returnsNonNilError(info, ret) {
				errReturns[ret] = true
			}
			return true
		})
	})
	return inGuard, errReturns
}

// returnsNonNilError reports whether ret's results include an
// error-typed expression that is not the nil literal.
func returnsNonNilError(info *types.Info, ret *ast.ReturnStmt) bool {
	for _, res := range ret.Results {
		e := ast.Unparen(res)
		if isNilIdent(e) {
			continue
		}
		if isErrorType(typeOf(info, e)) {
			return true
		}
	}
	return false
}
