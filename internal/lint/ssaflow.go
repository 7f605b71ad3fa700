package lint

import (
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/ssa"
)

// SSAFlow is infrastructure, not a check: it lowers every function
// body's CFG to the SSA-lite register IR of package ssa once, so
// dettaint walks def-use chains instead of re-deriving reaching
// definitions from the AST. It reports no diagnostics; its result is a
// *SSAResult.
var SSAFlow = &analysis.Analyzer{
	Name:     "ssaflow",
	Doc:      "lower per-function CFGs to SSA-lite registers (infrastructure for value-flow analyzers)",
	Run:      runSSAFlow,
	Requires: []*analysis.Analyzer{CtrlFlow},
}

// SSAResult holds the package's lowered functions.
type SSAResult struct {
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
	result := &SSAResult{}
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
		result.Order = append(result.Order, SSAFunc{FC: fc, F: f})
	}
	return result, nil
}
