package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/cfg"
)

// ShareCapture flags two racy goroutine-capture shapes around `go
// func() { ... }()` literals:
//
//  1. Loop spawn: a goroutine launched inside a loop writes a captured
//     variable declared *outside* the loop. Every iteration's goroutine
//     writes the same slot concurrently. The idiomatic parallel fill —
//     `s[i] = ...` where the index derives from a per-iteration loop
//     variable (or a closure parameter fed per-iteration) — is allowed
//     for slices and arrays; map writes always race regardless of key.
//  2. Unjoined read: the closure writes a captured variable and the
//     enclosing function accesses it at a point reachable from the go
//     statement with no intervening join — no Wait call, channel
//     operation, or select on any path between spawn and access (CFG
//     reachability, not syntax order).
//
// go.mod says go 1.22, so loop variables are per-iteration: capturing
// `i` itself is fine, which is exactly why this analyzer targets writes
// to *outer* state rather than loop-variable capture per se. Closures
// that synchronize internally (mutex lock, sync/atomic calls, channel
// send/receive) are skipped wholesale — the guard may cover the write,
// and guessing produces noise. Scheduler workers that batch results
// under a lock stay clean; the fork-join compute fills this repo's
// dparallel package exists for stay clean via rule 1's index
// exemption; the drive-by `go logStats()` mutating a shared counter
// does not.
var ShareCapture = &analysis.Analyzer{
	Name: "sharecapture",
	Doc:  "flag goroutine closures whose captured-variable writes race: loop-shared writes and unjoined post-spawn reads",
	Run:  runShareCapture,
}

func runShareCapture(pass *analysis.Pass) error {
	r := newReporter(pass)
	for _, fc := range pass.Funcs() {
		if isTestFile(pass.Fset, fc.Body.Pos()) {
			continue
		}
		checkShareCapture(pass, r, fc)
	}
	return nil
}

// capturedWrite describes one write inside a goroutine closure to a
// variable declared outside it.
type capturedWrite struct {
	obj types.Object
	pos token.Pos
	// indexed is true for `base[idx] = ...`; index holds the idx
	// expression and mapWrite whether base is a map.
	indexed  bool
	index    ast.Expr
	mapWrite bool
}

func checkShareCapture(pass *analysis.Pass, r *reporter, fc *analysis.Func) {
	// Walk this body without descending into nested literals: a nested
	// literal's own go statements belong to its own index entry. Loop
	// ancestry within this body is tracked on the way down.
	var loops []ast.Stmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != fc.Body {
				return false
			}
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n.(ast.Stmt))
			for _, c := range children(n) {
				ast.Inspect(c, walk)
			}
			loops = loops[:len(loops)-1]
			return false
		case *ast.GoStmt:
			lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			checkGoLiteral(pass, r, fc, n, lit, append([]ast.Stmt(nil), loops...))
			// Still descend: the literal may itself contain go stmts —
			// but those belong to the literal's entry, and walk stops
			// at FuncLit anyway.
		}
		return true
	}
	ast.Inspect(fc.Body, walk)
}

// children returns a loop statement's direct sub-nodes (used to
// recurse while keeping the ancestry stack accurate).
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	switch n := n.(type) {
	case *ast.ForStmt:
		for _, c := range []ast.Node{n.Init, n.Cond, n.Post, n.Body} {
			if c != nil {
				out = append(out, c)
			}
		}
	case *ast.RangeStmt:
		for _, c := range []ast.Node{n.Key, n.Value, n.X, n.Body} {
			if c != nil {
				out = append(out, c)
			}
		}
	}
	return out
}

func checkGoLiteral(pass *analysis.Pass, r *reporter, fc *analysis.Func, g *ast.GoStmt, lit *ast.FuncLit, loops []ast.Stmt) {
	info := pass.TypesInfo

	if closureSynchronizes(info, lit) {
		return
	}
	writes := capturedWrites(info, lit)
	if len(writes) == 0 {
		return
	}

	// Rule 1: loop spawn writing state shared across iterations.
	if len(loops) > 0 {
		loop := loops[len(loops)-1]
		for _, w := range writes {
			if w.obj.Pos() >= loop.Pos() && w.obj.Pos() <= loop.End() {
				continue // declared inside the loop: per-iteration state
			}
			if w.indexed && !w.mapWrite && indexIsPerIteration(info, w.index, loop, lit) {
				continue // s[i] = ... parallel fill
			}
			r.reportf(g.Pos(),
				"goroutine launched in a loop writes captured %q declared outside the loop; every iteration's goroutine writes it concurrently — use a per-iteration slot (s[i] = ...), a channel, or a mutex",
				w.obj.Name())
			break // one report per go statement is enough
		}
	}

	// Rule 2: the enclosing function touches a written variable after
	// the spawn with no join in between. One report per variable.
	reported := map[types.Object]bool{}
	for _, w := range writes {
		if reported[w.obj] {
			continue
		}
		if pos, ok := unjoinedAccess(info, fc, g, lit, w.obj); ok {
			reported[w.obj] = true
			r.reportf(pos,
				"%q is accessed here while a goroutine launched at line %d writes it, with no synchronization (Wait, channel, or select) between spawn and access",
				w.obj.Name(), pass.Fset.Position(g.Pos()).Line)
		}
	}
}

// capturedWrites collects writes inside lit to function-local variables
// declared outside it.
func capturedWrites(info *types.Info, lit *ast.FuncLit) []capturedWrite {
	var out []capturedWrite
	captured := func(id *ast.Ident) types.Object {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return nil
		}
		// Package-level variables are out of scope here (globals have
		// their own discipline); fields and channels likewise.
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return nil
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return nil // declared inside the closure (params included)
		}
		return v
	}
	note := func(target ast.Expr, pos token.Pos) {
		switch t := ast.Unparen(target).(type) {
		case *ast.Ident:
			if obj := captured(t); obj != nil {
				out = append(out, capturedWrite{obj: obj, pos: pos})
			}
		case *ast.IndexExpr:
			if base, ok := ast.Unparen(t.X).(*ast.Ident); ok {
				if obj := captured(base); obj != nil {
					isMap := false
					if tv, ok := info.Types[t.X]; ok && tv.Type != nil {
						_, isMap = tv.Type.Underlying().(*types.Map)
					}
					out = append(out, capturedWrite{obj: obj, pos: pos, indexed: true, index: t.Index, mapWrite: isMap})
				}
			}
		case *ast.SelectorExpr:
			if base, ok := ast.Unparen(t.X).(*ast.Ident); ok {
				if obj := captured(base); obj != nil {
					out = append(out, capturedWrite{obj: obj, pos: pos})
				}
			}
		case *ast.StarExpr:
			// *p = ... through a captured pointer: the pointee is
			// outside our aliasing model; stay quiet.
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				note(l, n.Pos())
			}
		case *ast.IncDecStmt:
			note(n.X, n.Pos())
		}
		return true
	})
	return out
}

// indexIsPerIteration reports whether idx mentions a variable declared
// by the loop statement itself or a parameter of the closure (the
// per-iteration value is then passed at the call site).
func indexIsPerIteration(info *types.Info, idx ast.Expr, loop ast.Stmt, lit *ast.FuncLit) bool {
	if idx == nil {
		return false
	}
	perIter := false
	ast.Inspect(idx, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj == nil {
			return true
		}
		if obj.Pos() >= loop.Pos() && obj.Pos() <= loop.End() && obj.Pos() < lit.Pos() {
			perIter = true // loop-declared variable
		}
		if lit.Type != nil && lit.Type.Params != nil &&
			obj.Pos() >= lit.Type.Params.Pos() && obj.Pos() <= lit.Type.Params.End() {
			perIter = true // closure parameter, fed per call
		}
		return true
	})
	return perIter
}

// closureSynchronizes reports whether the closure body contains its own
// synchronization — mutex/atomic calls or channel operations — in which
// case the write may be guarded and the analyzer stays quiet.
func closureSynchronizes(info *types.Info, lit *ast.FuncLit) bool {
	sync := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			sync = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				sync = true
			}
		case *ast.SelectStmt:
			sync = true
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Lock", "RLock", "Add", "Store", "Swap", "CompareAndSwap", "Load":
					// Mutex methods, or sync/atomic value methods. "Add"
					// also matches WaitGroup.Add — harmlessly quiet.
					if fn := analysis.Callee(info, n); fn != nil && fn.Pkg() != nil {
						switch fn.Pkg().Path() {
						case "sync", "sync/atomic":
							sync = true
						}
					} else {
						sync = true // unresolved: assume guarded
					}
				}
			} else if fn := analysis.Callee(info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
				sync = true
			}
		}
		return true
	})
	return sync
}

// unjoinedAccess looks for an access to obj reachable from the go
// statement with no join node in between, using the enclosing
// function's CFG. Returns the first such access position in block
// order.
func unjoinedAccess(info *types.Info, fc *analysis.Func, g *ast.GoStmt, lit *ast.FuncLit, obj types.Object) (token.Pos, bool) {
	// Locate the go statement's block and offset.
	var start *cfg.Block
	startIdx := -1
	for _, b := range fc.CFG.Blocks {
		if !b.Live {
			continue
		}
		for i, n := range b.Nodes {
			if n == g {
				start, startIdx = b, i
				break
			}
		}
		if start != nil {
			break
		}
	}
	if start == nil {
		return token.NoPos, false
	}

	accessIn := func(n ast.Node) (token.Pos, bool) {
		found := token.NoPos
		ast.Inspect(n, func(m ast.Node) bool {
			if found != token.NoPos {
				return false
			}
			// The spawning statement itself (and its closure) is not a
			// post-spawn access.
			if m == g || m == lit {
				return false
			}
			if id, ok := m.(*ast.Ident); ok {
				if o := info.Uses[id]; o == obj {
					found = id.Pos()
					return false
				}
			}
			return true
		})
		return found, found != token.NoPos
	}

	type item struct {
		b    *cfg.Block
		from int
	}
	seen := map[*cfg.Block]bool{}
	queue := []item{{start, startIdx + 1}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		joined := false
		for i := it.from; i < len(it.b.Nodes) && !joined; i++ {
			n := it.b.Nodes[i]
			// Join checked first: a statement that both joins and
			// reads (results := <-done; use in one call) evaluates the
			// join before the read.
			if joinNode(n) {
				joined = true
				continue
			}
			if pos, ok := accessIn(n); ok {
				return pos, true
			}
		}
		if joined {
			continue
		}
		for _, s := range it.b.Succs {
			if !s.Live || seen[s] {
				continue
			}
			seen[s] = true
			queue = append(queue, item{s, 0})
		}
	}
	return token.NoPos, false
}

// joinNode reports whether a CFG node synchronizes with spawned
// goroutines: a Wait call, any channel operation, or a select.
func joinNode(n ast.Node) bool {
	join := false
	ast.Inspect(n, func(m ast.Node) bool {
		if join {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt, *ast.SelectStmt:
			join = true
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				join = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				join = true
			}
		}
		return !join
	})
	return join
}
