// Package cfg builds per-function control-flow graphs from the AST and
// solves forward/backward dataflow problems over them — the
// flow-sensitive substrate under workflowlint's path-aware analyzers
// (lockorder, closecheck, errflow, dettaint). It is a deliberately
// small, stdlib-only sibling of golang.org/x/tools/go/cfg: the build is
// hermetic, so the upstream package cannot be imported.
//
// Shape of the graph: one CFG per function body. Blocks hold *atomic*
// nodes only — simple statements (assignments, expression statements,
// returns, defers, sends, incdec, declarations) and the controlling
// expressions of compound statements (if/for conditions, switch tags,
// range operands). Compound statements are decomposed into blocks and
// edges, so a transfer function may scan each node's subtree without
// ever seeing a nested statement (nested *ast.FuncLit bodies are their
// own CFGs and must be skipped by walkers, as everywhere else in the
// suite).
//
// Pseudo-edges, per the workflow invariants the analyzers prove:
//
//   - every return statement edges to the synthetic Exit block;
//   - a statement-position call to the builtin panic edges to Exit (the
//     deferred unlocks and closes still run, which is exactly why
//     lockorder and closecheck treat deferred calls as exit-time
//     events);
//   - defer statements stay in their block (their registration point)
//     and are additionally recorded in CFG.Defers in source order, so
//     analyzers can model their exit-time execution without re-walking.
//
// Unreachable code after a return/panic/branch parks in a fresh block
// with no predecessors; Block.Live distinguishes reachable blocks so
// solvers and reporting walks can skip dead code.
package cfg

import (
	"go/ast"
	"go/token"
)

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks in creation order; Blocks[0] is the entry block.
	Blocks []*Block
	// Exit is the synthetic exit block every return, panic, and
	// fall-off-the-end path converges to. It holds no nodes.
	Exit *Block
	// Defers lists every defer statement in the body in source order
	// (function literals excluded — their defers belong to their own
	// CFGs). Deferred calls run at Exit, last registered first.
	Defers []*ast.DeferStmt
}

// A Block is a maximal straight-line sequence of atomic nodes.
type Block struct {
	Index int
	// Comment describes the block's role ("entry", "if.then",
	// "for.body", "switch.case", "select.comm", "label.retry", ...),
	// for tests and debug dumps.
	Comment string
	// Nodes are the block's atomic statements and controlling
	// expressions, in execution order.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Live reports whether the block is reachable from the entry block
	// (computed once by Build; unreachable code parks in dead blocks).
	Live bool
}

// Entry returns the function's entry block.
func (g *CFG) Entry() *Block { return g.Blocks[0] }

// Build constructs the CFG of one function body.
func Build(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &builder{g: g, gotoTargets: map[string]*Block{}}
	entry := g.newBlock("entry")
	g.Exit = g.newBlock("exit")
	b.current = entry
	b.stmtList(body.List)
	b.jump(g.Exit) // falling off the end of the body reaches Exit
	g.markLive()
	return g
}

func (g *CFG) newBlock(comment string) *Block {
	blk := &Block{Index: len(g.Blocks), Comment: comment}
	g.Blocks = append(g.Blocks, blk)
	return blk
}

func (g *CFG) markLive() {
	var visit func(b *Block)
	visit = func(b *Block) {
		if b.Live {
			return
		}
		b.Live = true
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(g.Blocks[0])
}

type builder struct {
	g       *CFG
	current *Block // nil after a terminator (return/panic/branch)
	// breaks/continues are the enclosing breakable/continuable targets,
	// innermost last; an entry's label is "" for unlabeled statements.
	breaks      []targetEntry
	continues   []targetEntry
	gotoTargets map[string]*Block // label name → labeled statement's block
}

type targetEntry struct {
	label string
	block *Block
}

// add appends an atomic node to the current block.
func (b *builder) add(n ast.Node) {
	b.current.Nodes = append(b.current.Nodes, n)
}

// edge connects from → to.
func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump terminates the current block with an unconditional edge to
// target; a nil current (already terminated) is a no-op.
func (b *builder) jump(target *Block) {
	if b.current != nil {
		edge(b.current, target)
	}
	b.current = nil
}

// ensureBlock guarantees an open current block (dead code after a
// terminator parks in a fresh, unreachable block).
func (b *builder) ensureBlock() {
	if b.current == nil {
		b.current = b.g.newBlock("unreachable")
	}
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label is the name the statement was
// declared under (via a LabeledStmt), or "".
func (b *builder) stmt(s ast.Stmt, label string) {
	b.ensureBlock()
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		target := b.gotoTarget(s.Label.Name)
		b.jump(target)
		b.current = target
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlock := b.current
		after := b.g.newBlock("if.done")
		then := b.g.newBlock("if.then")
		edge(condBlock, then)
		b.current = then
		b.stmtList(s.Body.List)
		b.jump(after)
		if s.Else != nil {
			els := b.g.newBlock("if.else")
			edge(condBlock, els)
			b.current = els
			b.stmt(s.Else, "")
			b.jump(after)
		} else {
			edge(condBlock, after)
		}
		b.current = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.g.newBlock("for.loop")
		b.jump(head)
		b.current = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		after := b.g.newBlock("for.done")
		continueTo := head
		var post *Block
		if s.Post != nil {
			post = b.g.newBlock("for.post")
			continueTo = post
		}
		body := b.g.newBlock("for.body")
		edge(head, body)
		if s.Cond != nil {
			edge(head, after)
		}
		b.pushLoop(label, after, continueTo)
		b.current = body
		b.stmtList(s.Body.List)
		if post != nil {
			b.jump(post)
			b.current = post
			b.add(s.Post)
			b.jump(head)
		} else {
			b.jump(head)
		}
		b.popLoop(label)
		b.current = after

	case *ast.RangeStmt:
		b.add(s.X)
		head := b.g.newBlock("range.loop")
		b.jump(head)
		b.current = head
		after := b.g.newBlock("range.done")
		edge(head, after)
		body := b.g.newBlock("range.body")
		edge(head, body)
		b.pushLoop(label, after, head)
		b.current = body
		b.stmtList(s.Body.List)
		b.jump(head)
		b.popLoop(label)
		b.current = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, s.Body.List, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(label, s.Body.List, false)

	case *ast.SelectStmt:
		header := b.current
		after := b.g.newBlock("select.done")
		b.pushBreakable(label, after)
		for _, cs := range s.Body.List {
			cc := cs.(*ast.CommClause)
			blk := b.g.newBlock("select.comm")
			edge(header, blk)
			b.current = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			}
			b.stmtList(cc.Body)
			b.jump(after)
		}
		b.popBreakable(label)
		// An empty select{} blocks forever: after then has no preds and
		// stays dead, which is the truth.
		b.current = after

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.GoStmt, *ast.ExprStmt, *ast.AssignStmt, *ast.IncDecStmt,
		*ast.SendStmt, *ast.DeclStmt, *ast.EmptyStmt:
		b.add(s)
		if isPanicStmt(s) {
			b.jump(b.g.Exit)
		}

	default:
		// Future statement kinds: record and continue (conservative).
		b.add(s)
	}
}

// caseClauses lowers switch/type-switch bodies: every clause branches
// from the header block; a clause without a trailing `fallthrough`
// edges to the after block; `fallthrough` edges to the next clause's
// body. When addExprs is set, a clause block is seeded with its case
// expressions (they are evaluated before the body runs).
func (b *builder) caseClauses(label string, clauses []ast.Stmt, addExprs bool) {
	header := b.current
	after := b.g.newBlock("switch.done")
	b.pushBreakable(label, after)
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cs := range clauses {
		blocks[i] = b.g.newBlock("switch.case")
		edge(header, blocks[i])
		if cc, ok := cs.(*ast.CaseClause); ok {
			if cc.List == nil {
				hasDefault = true
			}
			if addExprs {
				for _, e := range cc.List {
					blocks[i].Nodes = append(blocks[i].Nodes, e)
				}
			}
		}
	}
	if !hasDefault {
		edge(header, after)
	}
	for i, cs := range clauses {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.current = blocks[i]
		body := cc.Body
		fallsThrough := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				body = body[:n-1]
			}
		}
		b.stmtList(body)
		if fallsThrough && i+1 < len(blocks) {
			b.jump(blocks[i+1])
		} else {
			b.jump(after)
		}
	}
	b.popBreakable(label)
	b.current = after
}

func (b *builder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		if t := findTarget(b.breaks, s.Label); t != nil {
			b.add(s)
			b.jump(t)
			return
		}
	case token.CONTINUE:
		if t := findTarget(b.continues, s.Label); t != nil {
			b.add(s)
			b.jump(t)
			return
		}
	case token.GOTO:
		if s.Label != nil {
			b.add(s)
			b.jump(b.gotoTarget(s.Label.Name))
			return
		}
	}
	// Unresolvable target or a fallthrough not in final position
	// (invalid Go): record and continue, conservative.
	b.add(s)
}

func findTarget(stack []targetEntry, label *ast.Ident) *Block {
	if len(stack) == 0 {
		return nil
	}
	if label == nil {
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return nil
}

// gotoTarget returns (creating on demand) the block a label names, so
// forward gotos resolve before their LabeledStmt is reached.
func (b *builder) gotoTarget(name string) *Block {
	if blk, ok := b.gotoTargets[name]; ok {
		return blk
	}
	blk := b.g.newBlock("label." + name)
	b.gotoTargets[name] = blk
	return blk
}

func (b *builder) pushLoop(label string, breakTo, continueTo *Block) {
	b.breaks = append(b.breaks, targetEntry{label, breakTo})
	b.continues = append(b.continues, targetEntry{label, continueTo})
}

func (b *builder) popLoop(string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *builder) pushBreakable(label string, breakTo *Block) {
	b.breaks = append(b.breaks, targetEntry{label, breakTo})
}

func (b *builder) popBreakable(string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
}

// isPanicStmt reports whether s is a statement-position call to the
// builtin panic.
func isPanicStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic" && id.Obj == nil
}
