package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// MPICollective enforces the SPMD contract every collective in this
// codebase assumes: all ranks of a communicator reach the same
// collectives in the same order. A single rank-dependent Barrier or
// AllReduce is a silent whole-allocation deadlock — the guarded ranks
// wait in the collective while the others never arrive (or arrive in a
// different one). The analyzer is interprocedural: a transitive
// "calls a collective" fact is computed over the call graph and exported
// across package boundaries (through vetx files under go vet), so a
// collective reached through helpers — any number of calls deep, in
// other packages — is still seen under a rank guard.
//
// Collectives are the mpi.Comm methods Barrier, AllReduce*, AllGather,
// AllToAll, Bcast, Gather, and Scatter. A condition is rank-dependent if
// it reads Comm.Rank() (or the rank field inside package mpi), directly
// or through a local variable assigned from it. Four rules:
//
//  1. a collective-reaching call under a rank-dependent `if` with no
//     else is flagged (only the guarded ranks reach it);
//  2. a rank-dependent `if`/`else` whose two arms reach different
//     collective sequences is flagged (identical sequences are fine —
//     the classic "root does extra work, everyone synchronizes" shape);
//  3. a collective-reaching call inside a loop whose condition or range
//     operand is rank-dependent is flagged (ranks disagree on the trip
//     count, so they disagree on the number of collective calls);
//  4. a `return` under a rank-dependent guard with collective-reaching
//     calls later in the function is flagged (the returning ranks skip
//     collectives the rest still enter).
//
// Results of AllReduce*, AllGather, and Bcast are rank-uniform by
// definition and do not carry taint — branching on an AllReduce result
// is the canonical rank-uniform decision.
//
// Rank-dependence is a function-local taint over assignments, and rules
// 1/4 are syntactic over the enclosing function — a collective guarded
// across a function boundary (helper takes a bool computed from Rank())
// is out of scope. Deliberate rank-guarded collectives must carry a
// //lint:allow mpicollective comment with justification.
var MPICollective = &analysis.Analyzer{
	Name:      "mpicollective",
	Doc:       "forbid MPI collectives reachable under rank-dependent control flow (SPMD collective-ordering)",
	Run:       runMPICollective,
	Requires:  []*analysis.Analyzer{CallGraph},
	FactTypes: []analysis.Fact{(*CallsCollective)(nil)},
}

// CallsCollective is the transitive fact: the function (or a function it
// calls, to any depth, across packages) executes these collective
// operations.
type CallsCollective struct {
	Collectives []string // sorted unique mpi.Comm method names
}

func (*CallsCollective) AFact() {}

func init() { analysis.RegisterFactType(&CallsCollective{}) }

// collectiveNames are the mpi.Comm methods that are collectives: every
// rank must call them, in the same order.
var collectiveNames = map[string]bool{
	"Barrier": true, "AllGather": true, "AllToAll": true, "Bcast": true,
	"Gather": true, "Scatter": true,
	"AllReduceFloat64": true, "AllReduceSum": true, "AllReduceMax": true,
	"AllReduceMin": true, "AllReduceSumInt": true,
}

// uniformCollective reports whether the named collective returns the
// same value on every rank by definition: AllReduce* and AllGather
// deliver the full reduction/gather everywhere, Bcast delivers root's
// value everywhere. Their results therefore do NOT carry rank taint,
// even when computed from rank-dependent inputs — branching on an
// AllReduce result is the canonical way to make a rank-uniform
// decision. Gather (nil off-root), Scatter, and AllToAll return
// per-rank values and stay tainting.
func uniformCollective(name string) bool {
	return strings.HasPrefix(name, "AllReduce") || name == "AllGather" || name == "Bcast"
}

// isMPIComm matches the rank-mesh communicator type.
func isMPIComm(t types.Type) bool { return isNamedIn(t, "mpi", "Comm") }

// directCollective returns the collective's method name if fn is one of
// the mpi.Comm collective methods.
func directCollective(fn *types.Func) (string, bool) {
	if fn == nil || !collectiveNames[fn.Name()] {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isMPIComm(sig.Recv().Type()) {
		return "", false
	}
	return fn.Name(), true
}

func runMPICollective(pass *analysis.Pass) (any, error) {
	cg := pass.ResultOf[CallGraph].(*CallGraphResult)
	r := newReporter(pass)

	// Phase 1: transitive "reaches collectives" sets for every function
	// declared in this package, exported as facts.
	calleeSet := cg.closure(pass.Pkg, labelClosure{
		seed:   func(*CallNode) map[string]bool { return map[string]bool{} },
		direct: directCollective,
		imported: func(fn *types.Func) []string {
			var fact CallsCollective
			pass.ImportObjectFact(fn, &fact)
			return fact.Collectives
		},
		export: func(fn *types.Func, names []string) {
			pass.ExportObjectFact(fn, &CallsCollective{Collectives: names})
		},
	})

	// siteCollectives resolves one call site to the collectives it
	// reaches, and a label for diagnostics.
	siteCollectives := func(call *ast.CallExpr) ([]string, string) {
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return nil, ""
		}
		if name, ok := directCollective(fn); ok {
			return []string{name}, name
		}
		set := calleeSet(fn)
		if len(set) == 0 {
			return nil, ""
		}
		names := sortedKeys(set)
		return names, fmt.Sprintf("%s (reaches %s)", fn.Name(), strings.Join(names, ", "))
	}

	// Phase 2: rank-dependent control flow, per declared function.
	for _, fn := range cg.Order {
		checkRankFlow(pass, r, cg.Nodes[fn].Decl, siteCollectives)
	}
	return nil, nil
}

// isRankField matches a selector for the rank field of mpi.Comm — the
// form the collectives' own implementation package uses.
func isRankField(info *types.Info, sel *ast.SelectorExpr) bool {
	obj, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || obj.Name() != "rank" || !obj.IsField() {
		return false
	}
	return obj.Pkg() != nil && obj.Pkg().Name() == "mpi"
}

// rankDependent reports whether e reads the calling rank: Comm.Rank()
// (or the rank field inside package mpi), or a local already in tainted.
func rankDependent(info *types.Info, tainted map[types.Object]bool, e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && isMPIComm(sig.Recv().Type()) {
					if fn.Name() == "Rank" {
						found = true
					} else if uniformCollective(fn.Name()) {
						// Rank-uniform result: prune so tainted
						// arguments do not taint it.
						return false
					}
				}
			}
		case *ast.SelectorExpr:
			if isRankField(info, n) {
				found = true
			}
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// rankTaint computes the set of local objects derived from Comm.Rank()
// within one function body: a fixpoint over assignments and short
// variable declarations.
func rankTaint(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				var rhs ast.Expr
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0]
				} else {
					continue
				}
				if !rankDependent(info, tainted, rhs) {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return tainted
}

// checkRankFlow applies rules 1–4 to one function declaration.
func checkRankFlow(pass *analysis.Pass, r *reporter, decl *ast.FuncDecl, siteCollectives func(*ast.CallExpr) ([]string, string)) {
	info := pass.TypesInfo
	tainted := rankTaint(info, decl.Body)
	rankDependent := func(e ast.Expr) bool { return rankDependent(info, tainted, e) }

	// collectiveSites yields each collective-reaching call under n with
	// its label; the helper's internals are its fact, so a reaching call
	// is not descended into.
	collectiveSites := func(n ast.Node, visit func(call *ast.CallExpr, label string)) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if _, label := siteCollectives(call); label != "" {
					visit(call, label)
					return false
				}
			}
			return true
		})
	}
	// collectiveSeq flattens the ordered collective "events" under a
	// node: one label per collective-reaching call site.
	collectiveSeq := func(n ast.Node) (seq []string) {
		collectiveSites(n, func(_ *ast.CallExpr, label string) { seq = append(seq, label) })
		return seq
	}

	reported := map[token.Pos]bool{}
	reportOnce := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			r.reportf(pos, format, args...)
		}
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if !rankDependent(n.Cond) {
				return true
			}
			if n.Else != nil {
				thenSeq, elseSeq := collectiveSeq(n.Body), collectiveSeq(n.Else)
				if len(thenSeq) == 0 && len(elseSeq) == 0 {
					return true
				}
				if !slices.Equal(thenSeq, elseSeq) {
					reportOnce(n.Pos(),
						"mismatched collective sequences across rank-dependent branches: then reaches [%s], else reaches [%s]; every rank must execute the same collectives in the same order",
						strings.Join(thenSeq, " "), strings.Join(elseSeq, " "))
				}
				// Matched sequences are the sanctioned shape; either way
				// the arms have been accounted for at this level. Nested
				// rank-dependent flow inside the arms is still visited.
				return true
			}
			collectiveSites(n.Body, func(call *ast.CallExpr, label string) {
				reportOnce(call.Pos(),
					"collective %s under rank-dependent condition with no else: only the guarded ranks reach it, deadlocking the rest",
					label)
			})
			// Rule 4: a guarded return skips any collectives below.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				ret, ok := m.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				var after []string
				collectiveSites(decl.Body, func(call *ast.CallExpr, label string) {
					if call.Pos() > n.End() {
						after = append(after, label)
					}
				})
				if len(after) > 0 {
					reportOnce(ret.Pos(),
						"rank-dependent early return skips collective(s) [%s] later in this function; the returning ranks never arrive",
						strings.Join(after, " "))
				}
				return true
			})
		case *ast.ForStmt:
			if rankDependent(n.Cond) {
				collectiveSites(n.Body, func(call *ast.CallExpr, label string) {
					reportOnce(call.Pos(),
						"collective %s inside a loop with rank-dependent condition: ranks disagree on the trip count and desynchronize",
						label)
				})
			}
		case *ast.RangeStmt:
			if rankDependent(n.X) {
				collectiveSites(n.Body, func(call *ast.CallExpr, label string) {
					reportOnce(call.Pos(),
						"collective %s inside a range over a rank-dependent value: ranks disagree on the trip count and desynchronize",
						label)
				})
			}
		}
		return true
	})
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
