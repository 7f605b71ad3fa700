// Package ssa lowers the per-function control-flow graphs of package
// cfg into an SSA-lite intermediate representation: every expression
// and every version of every local variable becomes a virtual register
// (*Value), phi registers are placed at join blocks via dominance
// frontiers, and def-use chains link each register to the instructions
// that consume it. It is the value-flow substrate under workflowlint's
// taint analyzer (dettaint): an interprocedural engine can
// walk def-use edges instead of re-deriving reaching definitions from
// the AST per query.
//
// "Lite" is a precise qualifier, not modesty:
//
//   - Local variables that are never address-taken and never referenced
//     by a nested function literal get true SSA form — one register per
//     version, phis at the iterated dominance frontier of their
//     definition blocks (classic Cytron placement over cfg.Dominance).
//   - Address-taken or closure-shared variables degrade to memory:
//     OpVarLoad/OpVarStore against the variable's object, deliberately
//     flow-insensitive (a store anywhere reaches a load anywhere in the
//     same function). Sound for taint: over-approximation only.
//   - Function literals are separate Funcs (their bodies are separate
//     CFGs); an OpClosure register marks the creation site. Value flow
//     does not cross the closure boundary.
//
// The instruction set is the subset value-flow analyses need: calls
// (with static callees resolved), field/index/deref loads, stores,
// make/append, conversions, multi-value extraction, range headers, and
// returns. Everything else lowers to a conservative OpUnknown register
// that still participates in def-use propagation.
package ssa

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis/cfg"
)

// Op is the kind of one instruction/register.
type Op uint8

const (
	OpParam     Op = iota // function parameter (receiver first for methods)
	OpConst               // literal, nil, named constant, or type expression
	OpGlobal              // package-level or imported variable/function
	OpPhi                 // SSA phi at a join block
	OpCopy                // named rebinding: x := y (keeps witness names)
	OpCall                // function or method call
	OpBinOp               // binary operator (Tok)
	OpUnOp                // unary operator (Tok; includes <-ch receives)
	OpDeref               // *p load
	OpAddr                // &x
	OpField               // x.f load
	OpIndex               // x[i] load (slice, array, map, string)
	OpSlice               // x[i:j:k]
	OpMake                // make(T, n, ...) — Args are the size operands
	OpLen                 // len(x)/cap(x): results carry no content taint
	OpAppend              // append(s, ...)
	OpComposite           // composite literal; Args are the elements
	OpConvert             // T(x) and type assertions
	OpExtract             // Index'th component of a multi-value register
	OpRange               // range header over Args[0]; extracts = key/val
	OpClosure             // function literal creation site
	OpStore               // *no result*: store Args[1] into base Args[0]
	OpVarLoad             // load of a memory-degraded variable (Var)
	OpVarStore            // *no result*: store Args[0] into variable Var
	OpReturn              // *no result*: Args are the returned values
	OpUnknown             // conservative fallback register
)

var opNames = [...]string{
	OpParam: "param", OpConst: "const", OpGlobal: "global", OpPhi: "phi",
	OpCopy: "copy", OpCall: "call", OpBinOp: "binop", OpUnOp: "unop",
	OpDeref: "deref", OpAddr: "addr", OpField: "field", OpIndex: "index",
	OpSlice: "slice", OpMake: "make", OpLen: "len", OpAppend: "append",
	OpComposite: "composite", OpConvert: "convert", OpExtract: "extract",
	OpRange: "range", OpClosure: "closure", OpStore: "store",
	OpVarLoad: "varload", OpVarStore: "varstore", OpReturn: "return",
	OpUnknown: "unknown",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// A Value is one virtual register (for ops that produce a result) or
// effect instruction (OpStore/OpVarStore/OpReturn, which produce none).
type Value struct {
	ID    int
	Op    Op
	Args  []*Value
	Uses  []*Value // instructions consuming this register (def-use chain)
	Block *Block
	Pos   token.Pos

	// Name is the local variable this register (re)defines, or a detail
	// string ("f" for OpField's field, "len" vs "cap" for OpLen).
	Name string
	// Var is the source-level object for OpParam, OpGlobal,
	// OpVarLoad/OpVarStore, and var-targeted OpStore.
	Var types.Object
	// Callee is the statically resolved target of OpCall, nil for
	// indirect calls (the function value is then Args[0]).
	Callee *types.Func
	// RecvArg marks a static method OpCall whose Args[0] is the
	// receiver; engines use it to map Args to summary param indices.
	RecvArg bool
	// Expr is the originating expression, when one exists (type
	// information lives in TypesInfo keyed by it).
	Expr ast.Expr
	// Index is OpExtract's component index.
	Index int
	// Tok is OpBinOp/OpUnOp's operator.
	Tok token.Token
}

// IsComparison reports whether v is a comparison operator register —
// the shape bound-check sanitizers look for.
func (v *Value) IsComparison() bool {
	if v.Op != OpBinOp {
		return false
	}
	switch v.Tok {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

// A Block mirrors one live cfg.Block: phis first, then instructions in
// lowering order.
type Block struct {
	CFG    *cfg.Block
	Phis   []*Value
	Instrs []*Value
}

// A Func is the SSA-lite form of one function body.
type Func struct {
	// Name labels the function for diagnostics ("Run", "func literal").
	Name string
	// Params are the OpParam registers: receiver first for methods, then
	// the declared parameters, in signature order.
	Params []*Value
	// NumResults is the signature's result count, so summaries can map
	// OpReturn args to result indices.
	NumResults int
	// Blocks holds the live blocks in cfg index order; Blocks[0] is
	// entry.
	Blocks []*Block
	// Values lists every register in creation order — the deterministic
	// iteration order for engines.
	Values []*Value
	// ByBlock maps cfg blocks to their SSA blocks.
	ByBlock map[*cfg.Block]*Block
}

// String renders the function for tests and debugging.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (%d params, %d results)\n", f.Name, len(f.Params), f.NumResults)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:\n", b.CFG.Index)
		for _, v := range b.Phis {
			sb.WriteString("\t" + formatValue(v) + "\n")
		}
		for _, v := range b.Instrs {
			sb.WriteString("\t" + formatValue(v) + "\n")
		}
	}
	return sb.String()
}

func formatValue(v *Value) string {
	var sb strings.Builder
	switch v.Op {
	case OpStore, OpVarStore, OpReturn:
		sb.WriteString(v.Op.String())
	default:
		fmt.Fprintf(&sb, "v%d = %s", v.ID, v.Op)
	}
	if v.Name != "" {
		fmt.Fprintf(&sb, " [%s]", v.Name)
	}
	if v.Callee != nil {
		fmt.Fprintf(&sb, " %s", v.Callee.Name())
	}
	if v.Tok != token.ILLEGAL {
		fmt.Fprintf(&sb, " %q", v.Tok.String())
	}
	if v.Op == OpExtract {
		fmt.Fprintf(&sb, " #%d", v.Index)
	}
	for _, a := range v.Args {
		if a == nil {
			sb.WriteString(" v?")
			continue
		}
		fmt.Fprintf(&sb, " v%d", a.ID)
	}
	return sb.String()
}

// Lower builds the SSA-lite form of one function body over its CFG.
// decl carries the declaration when the body belongs to a declared
// function (nil for literals); info must cover the body's file.
func Lower(name string, body *ast.BlockStmt, g *cfg.CFG, sig *types.Signature, info *types.Info) *Func {
	lw := &lowerer{
		fn:       &Func{Name: name, ByBlock: map[*cfg.Block]*Block{}},
		g:        g,
		info:     info,
		defsOut:  map[*cfg.Block]map[types.Object]*Value{},
		memVars:  map[types.Object]bool{},
		phiVar:   map[*Value]types.Object{},
		rangeByX: map[ast.Expr]*ast.RangeStmt{},
	}
	if sig != nil {
		lw.fn.NumResults = sig.Results().Len()
	}
	lw.collectContext(body)
	lw.scanDefs(sig)
	lw.dom = g.Dominance()
	lw.placePhis()
	lw.renameAll(sig)
	lw.fillPhiOperands()
	return lw.fn
}

type lowerer struct {
	fn   *Func
	g    *cfg.CFG
	info *types.Info
	dom  *cfg.DomTree

	// memVars holds locals degraded to memory (address-taken or shared
	// with a nested function literal).
	memVars map[types.Object]bool
	// defBlocks records, per SSA-tracked local, the live blocks that
	// (re)define it.
	defBlocks map[types.Object]map[*cfg.Block]bool
	// phisByBlock and phiVar record placed phis before operand filling.
	phisByBlock map[*cfg.Block]map[types.Object]*Value
	phiVar      map[*Value]types.Object
	// defsOut snapshots the reaching definition of every SSA local at
	// each block's end, for phi operand filling.
	defsOut map[*cfg.Block]map[types.Object]*Value
	// resultVars are the named result objects (for bare returns).
	resultVars []types.Object
	// rangeByX maps a range statement's X expression to the statement,
	// because cfg blocks carry only X for range headers.
	rangeByX map[ast.Expr]*ast.RangeStmt
}

func (lw *lowerer) newValue(op Op, pos token.Pos, args ...*Value) *Value {
	v := &Value{ID: len(lw.fn.Values), Op: op, Pos: pos, Tok: token.ILLEGAL}
	for _, a := range args {
		if a != nil {
			v.Args = append(v.Args, a)
			a.Uses = append(a.Uses, v)
		}
	}
	lw.fn.Values = append(lw.fn.Values, v)
	return v
}

func (v *Value) addArg(a *Value) {
	if a == nil {
		return
	}
	v.Args = append(v.Args, a)
	a.Uses = append(a.Uses, v)
}

// collectContext walks the whole body once: range headers are keyed by
// their X expression, and variables referenced under & or inside nested
// function literals are degraded to memory.
func (lw *lowerer) collectContext(body *ast.BlockStmt) {
	var litDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			litDepth++
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := lw.objectOf(id); obj != nil && lw.isLocalVar(obj) {
						lw.memVars[obj] = true
					}
				}
				return true
			})
			litDepth--
			return false // nested bodies handled above; don't descend twice
		case *ast.RangeStmt:
			lw.rangeByX[n.X] = n
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if obj := lw.objectOf(id); obj != nil && lw.isLocalVar(obj) {
						lw.memVars[obj] = true
					}
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// objectOf resolves an identifier to its variable object.
func (lw *lowerer) objectOf(id *ast.Ident) types.Object {
	if obj := lw.info.Defs[id]; obj != nil {
		return obj
	}
	return lw.info.Uses[id]
}

// isLocalVar reports whether obj is a function-local variable (not a
// package-level one, not a field, not a constant).
func (lw *lowerer) isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	// Package-level vars have the package scope as parent.
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return false
	}
	return true
}

// trackable reports whether obj gets SSA registers (vs memory ops).
func (lw *lowerer) trackable(obj types.Object) bool {
	return obj != nil && lw.isLocalVar(obj) && !lw.memVars[obj]
}

// scanDefs records which live blocks define each SSA-tracked local.
func (lw *lowerer) scanDefs(sig *types.Signature) {
	lw.defBlocks = map[types.Object]map[*cfg.Block]bool{}
	note := func(obj types.Object, b *cfg.Block) {
		if !lw.trackable(obj) {
			return
		}
		set := lw.defBlocks[obj]
		if set == nil {
			set = map[*cfg.Block]bool{}
			lw.defBlocks[obj] = set
		}
		set[b] = true
	}
	entry := lw.g.Entry()
	if sig != nil {
		if recv := sig.Recv(); recv != nil {
			note(recv, entry)
		}
		for i := 0; i < sig.Params().Len(); i++ {
			note(sig.Params().At(i), entry)
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if r := sig.Results().At(i); r.Name() != "" && r.Name() != "_" {
				lw.resultVars = append(lw.resultVars, r)
				note(r, entry)
			} else {
				lw.resultVars = append(lw.resultVars, nil)
			}
		}
	}
	for _, b := range lw.g.Blocks {
		if !b.Live {
			continue
		}
		for _, n := range b.Nodes {
			lw.scanNodeDefs(n, b, note)
		}
	}
}

func (lw *lowerer) scanNodeDefs(n ast.Node, b *cfg.Block, note func(types.Object, *cfg.Block)) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, l := range n.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
				note(lw.objectOf(id), b)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			note(lw.objectOf(id), b)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, id := range vs.Names {
				if id.Name != "_" {
					note(lw.objectOf(id), b)
				}
			}
		}
	case ast.Expr:
		if rng, ok := lw.rangeByX[n]; ok {
			for _, e := range []ast.Expr{rng.Key, rng.Value} {
				if e == nil {
					continue
				}
				if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name != "_" {
					note(lw.objectOf(id), b)
				}
			}
		}
	}
}

// placePhis inserts phi registers at the iterated dominance frontier of
// each variable's definition blocks (only at blocks with >= 2 live
// preds). Deterministic: variables processed in first-definition order.
func (lw *lowerer) placePhis() {
	lw.phisByBlock = map[*cfg.Block]map[types.Object]*Value{}

	vars := make([]types.Object, 0, len(lw.defBlocks))
	for obj := range lw.defBlocks {
		vars = append(vars, obj)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })

	for _, obj := range vars {
		defs := lw.defBlocks[obj]
		if len(defs) < 2 {
			continue
		}
		work := make([]*cfg.Block, 0, len(defs))
		for b := range defs {
			work = append(work, b)
		}
		sort.Slice(work, func(i, j int) bool { return work[i].Index < work[j].Index })
		placed := map[*cfg.Block]bool{}
		for len(work) > 0 {
			b := work[0]
			work = work[1:]
			for _, f := range lw.dom.Frontier[b] {
				if placed[f] {
					continue
				}
				placed[f] = true
				phi := lw.newValue(OpPhi, nodesPos(f))
				phi.Name = obj.Name()
				phi.Var = obj
				set := lw.phisByBlock[f]
				if set == nil {
					set = map[types.Object]*Value{}
					lw.phisByBlock[f] = set
				}
				set[obj] = phi
				lw.phiVar[phi] = obj
				if !defs[f] {
					defs[f] = true
					work = append(work, f)
				}
			}
		}
	}
}

// renameAll lowers every live block in dominator-tree DFS order,
// threading the current definition of each SSA local.
func (lw *lowerer) renameAll(sig *types.Signature) {
	entry := lw.g.Entry()
	defs := map[types.Object]*Value{}

	// Materialize blocks in cfg index order first so Blocks is stable
	// regardless of dom-tree shape.
	for _, cb := range lw.g.Blocks {
		if !cb.Live {
			continue
		}
		sb := &Block{CFG: cb}
		lw.fn.Blocks = append(lw.fn.Blocks, sb)
		lw.fn.ByBlock[cb] = sb
	}

	// Parameters (receiver first), then named results zero-initialized.
	if sig != nil {
		addParam := func(obj types.Object, pos token.Pos) {
			p := lw.newValue(OpParam, pos)
			p.Var = obj
			if obj != nil {
				p.Name = obj.Name()
			}
			p.Block = lw.fn.ByBlock[entry]
			lw.fn.Params = append(lw.fn.Params, p)
			if lw.trackable(obj) {
				defs[obj] = p
			} else if obj != nil && lw.memVars[obj] {
				st := lw.newValue(OpVarStore, pos, p)
				st.Var = obj
				st.Name = obj.Name()
				lw.appendInstr(lw.fn.ByBlock[entry], st)
			}
		}
		if recv := sig.Recv(); recv != nil {
			addParam(recv, recv.Pos())
		}
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			addParam(p, p.Pos())
		}
		for _, r := range lw.resultVars {
			if r == nil {
				continue
			}
			zero := lw.newValue(OpConst, r.Pos())
			zero.Name = r.Name()
			lw.appendInstr(lw.fn.ByBlock[entry], zero)
			if lw.trackable(r) {
				defs[r] = zero
			}
		}
	}

	var visit func(cb *cfg.Block, defs map[types.Object]*Value)
	visit = func(cb *cfg.Block, defs map[types.Object]*Value) {
		sb := lw.fn.ByBlock[cb]
		// Phis redefine their variables at block start.
		if phis := lw.phisByBlock[cb]; len(phis) > 0 {
			objs := make([]types.Object, 0, len(phis))
			for obj := range phis {
				objs = append(objs, obj)
			}
			sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
			for _, obj := range objs {
				phi := phis[obj]
				phi.Block = sb
				sb.Phis = append(sb.Phis, phi)
				defs[obj] = phi
			}
		}
		st := &blockState{lw: lw, sb: sb, defs: defs}
		for _, n := range cb.Nodes {
			st.lowerNode(n)
		}
		// The block is done mutating defs: freeze it as the block's
		// out-state and clone only for the children (leaves and chain
		// blocks are the common case, so this halves the map copying).
		lw.defsOut[cb] = defs
		for _, child := range lw.dom.Children[cb] {
			visit(child, cloneDefs(defs))
		}
	}
	visit(entry, defs)
}

func cloneDefs(m map[types.Object]*Value) map[types.Object]*Value {
	out := make(map[types.Object]*Value, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (lw *lowerer) appendInstr(sb *Block, v *Value) {
	v.Block = sb
	sb.Instrs = append(sb.Instrs, v)
}

// fillPhiOperands wires each phi to its variable's reaching definition
// at the end of every live predecessor.
func (lw *lowerer) fillPhiOperands() {
	for cb, phis := range lw.phisByBlock {
		for _, phi := range phis {
			obj := lw.phiVar[phi]
			for _, p := range cb.Preds {
				if !p.Live {
					continue
				}
				if def, ok := lw.defsOut[p][obj]; ok {
					phi.addArg(def)
				}
			}
		}
	}
}

// nodesPos returns a stable position for synthetic block-level values:
// the first node's position, or NoPos for empty blocks.
func nodesPos(b *cfg.Block) token.Pos {
	if len(b.Nodes) > 0 {
		return b.Nodes[0].Pos()
	}
	return token.NoPos
}
