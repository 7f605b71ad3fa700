package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// CallGraph is shared infrastructure, not a check: it builds the static
// (type-resolved) call graph of one package once, and every
// interprocedural analyzer declares it in Requires instead of re-walking
// the ASTs. It reports no diagnostics; its result is a *CallGraphResult.
//
// Resolution is type-based and static only: a call site contributes an
// edge when the callee identifier resolves to a *types.Func (direct
// function calls and method calls with a statically known receiver
// type). Calls through function values and interface methods produce no
// edge — the analyzers built on top are deliberately conservative in the
// other direction (absence of an edge means absence of a finding, never
// a spurious one).
//
// Calls made inside a function literal are attributed to the enclosing
// declared function: for the transitive properties computed over this
// graph ("reaches a collective", "propagates a write error") a call made
// by a closure the function creates is still a call the function's
// callers must account for.
var CallGraph = &analysis.Analyzer{
	Name: "callgraph",
	Doc:  "build the package's type-resolved static call graph (infrastructure for interprocedural analyzers)",
	Run:  runCallGraph,
}

// CallGraphResult is the per-package call graph.
type CallGraphResult struct {
	// Nodes maps each function or method declared in this package (with
	// a body) to its outgoing edges, in declaration order per file.
	Nodes map[*types.Func]*CallNode
	// Order lists the declared functions in source order, for
	// deterministic iteration.
	Order []*types.Func
}

// CallNode is one declared function and the static calls it makes.
type CallNode struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Calls []CallEdge
}

// CallEdge is one resolved call site.
type CallEdge struct {
	Callee *types.Func
	Site   *ast.CallExpr
}

func runCallGraph(pass *analysis.Pass) (any, error) {
	result := &CallGraphResult{Nodes: map[*types.Func]*CallNode{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &CallNode{Fn: fn, Decl: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeFunc(pass.TypesInfo, call); callee != nil {
					node.Calls = append(node.Calls, CallEdge{Callee: callee, Site: call})
				}
				return true
			})
			result.Nodes[fn] = node
			result.Order = append(result.Order, fn)
		}
	}
	return result, nil
}

// A labelClosure describes one transitive label set over the call
// graph — "the collectives it reaches", "the write roots whose errors it
// returns", "the locks it acquires".
type labelClosure struct {
	// seed gives a function's own labels before any callee contributes,
	// or nil to leave the function out (it then carries no set and
	// exports no fact).
	seed func(*CallNode) map[string]bool
	// direct, when set, names the label a callee stands for by itself
	// (a collective, a write root); it wins over the callee's set.
	direct func(*types.Func) (string, bool)
	// imported reads the labels off the fact of a callee declared in
	// another package.
	imported func(*types.Func) []string
	// export publishes a member's non-empty closed set (sorted) as its
	// fact.
	export func(*types.Func, []string)
}

// closure solves c as the least fixpoint over the package's call edges,
// exports the members' sets, and returns the lookup call sites use: a
// callee's direct label, else its closed set when it is a member, else
// its imported fact.
func (cg *CallGraphResult) closure(pkg *types.Package, c labelClosure) func(*types.Func) map[string]bool {
	sets := map[*types.Func]map[string]bool{}
	for _, fn := range cg.Order {
		if set := c.seed(cg.Nodes[fn]); set != nil {
			sets[fn] = set
		}
	}
	importedSets := map[*types.Func]map[string]bool{}
	labels := func(fn *types.Func) map[string]bool {
		if fn == nil {
			return nil
		}
		if c.direct != nil {
			if label, ok := c.direct(fn); ok {
				return map[string]bool{label: true}
			}
		}
		if set, ok := sets[fn]; ok {
			return set
		}
		if fn.Pkg() == nil || fn.Pkg() == pkg {
			return nil
		}
		set, ok := importedSets[fn]
		if !ok {
			if ls := c.imported(fn); len(ls) > 0 {
				set = make(map[string]bool, len(ls))
				for _, l := range ls {
					set[l] = true
				}
			}
			importedSets[fn] = set
		}
		return set
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range cg.Order {
			set, ok := sets[fn]
			if !ok {
				continue
			}
			for _, edge := range cg.Nodes[fn].Calls {
				for label := range labels(edge.Callee) {
					if !set[label] {
						set[label] = true
						changed = true
					}
				}
			}
		}
	}
	for _, fn := range cg.Order {
		if set := sets[fn]; len(set) > 0 {
			c.export(fn, sortedKeys(set))
		}
	}
	return labels
}
