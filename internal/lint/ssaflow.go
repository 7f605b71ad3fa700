package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/ssa"
	"repro/internal/lint/analysis/taint"
)

// SSAFlow is shared infrastructure, not a check: it lowers every
// function body's CFG to the SSA-lite register IR of package ssa once,
// so value-flow analyzers (dettaint, allocbound) walk def-use chains
// instead of re-deriving reaching definitions from the AST. It reports
// no diagnostics; its result is a *SSAResult.
var SSAFlow = &analysis.Analyzer{
	Name:     "ssaflow",
	Doc:      "lower per-function CFGs to SSA-lite registers (infrastructure for value-flow analyzers)",
	Run:      runSSAFlow,
	Requires: []*analysis.Analyzer{CtrlFlow},
}

// SSAResult holds the package's lowered functions.
type SSAResult struct {
	// ByBody maps each function body to its lowered form.
	ByBody map[*ast.BlockStmt]*ssa.Func
	// Order pairs graphs with lowered bodies in source order.
	Order []SSAFunc
}

// SSAFunc pairs one CFG (with its declaration context) with its
// SSA-lite lowering.
type SSAFunc struct {
	FC *FuncCFG
	F  *ssa.Func
}

func runSSAFlow(pass *analysis.Pass) (any, error) {
	flow := pass.ResultOf[CtrlFlow].(*CFGResult)
	result := &SSAResult{ByBody: map[*ast.BlockStmt]*ssa.Func{}}
	for _, fc := range flow.Order {
		var sig *types.Signature
		switch {
		case fc.Fn != nil:
			sig, _ = fc.Fn.Type().(*types.Signature)
		case fc.Lit != nil:
			if tv, ok := pass.TypesInfo.Types[fc.Lit]; ok {
				sig, _ = tv.Type.(*types.Signature)
			}
		}
		f := ssa.Lower(fc.Name(), fc.Body, fc.G, sig, pass.TypesInfo)
		result.ByBody[fc.Body] = f
		result.Order = append(result.Order, SSAFunc{FC: fc, F: f})
	}
	return result, nil
}

// runTaint is the driver the taint analyzers (dettaint, allocbound)
// share: it runs spec over the package's lowered functions, carries
// summaries across packages through the analyzer's own fact type —
// newFact returns a fresh fact and the summary inside it — and hands
// every finding outside test files to report.
func runTaint(pass *analysis.Pass, res *SSAResult, spec taint.Spec, newFact func() (analysis.Fact, *taint.Summary), report func(token.Pos, taint.Finding)) {
	engine := &taint.Engine{
		Spec: spec,
		External: func(fn *types.Func) (*taint.Summary, bool) {
			fact, sum := newFact()
			return sum, pass.ImportObjectFact(fn, fact)
		},
	}
	fns := make([]taint.FuncInfo, 0, len(res.Order))
	for _, sf := range res.Order {
		fns = append(fns, taint.FuncInfo{Fn: sf.FC.Fn, SSA: sf.F})
	}
	result := engine.AnalyzePackage(fns)
	for fn, sum := range result.Summaries {
		if fn.Pkg() == pass.Pkg && !sum.Empty() {
			fact, dst := newFact()
			*dst = *sum
			pass.ExportObjectFact(fn, fact)
		}
	}
	for _, f := range result.Findings {
		if pos := token.Pos(f.Pos); !isTestFile(pass.Fset, pos) {
			report(pos, f)
		}
	}
}
