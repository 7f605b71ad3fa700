package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/cfg"
)

// CtrlFlow is shared infrastructure, not a check: it builds the CFG of
// every function body in the package once (declarations and function
// literals, each its own graph), and flow-sensitive analyzers declare it
// in Requires instead of re-building graphs. It reports no diagnostics;
// its result is a *CFGResult.
var CtrlFlow = &analysis.Analyzer{
	Name: "ctrlflow",
	Doc:  "build per-function control-flow graphs (infrastructure for flow-sensitive analyzers)",
	Run:  runCtrlFlow,
}

// CFGResult holds the package's control-flow graphs.
type CFGResult struct {
	// ByBody maps each function body to its graph (bodies are unique
	// AST nodes, so they key both declarations and literals).
	ByBody map[*ast.BlockStmt]*FuncCFG
	// Order lists the graphs in source order — declarations and
	// literals interleaved as they appear — for deterministic iteration.
	Order []*FuncCFG
}

// FuncCFG pairs one function body with its graph and declaration
// context.
type FuncCFG struct {
	Body *ast.BlockStmt
	Decl *ast.FuncDecl // nil for function literals
	Lit  *ast.FuncLit  // nil for declarations
	Fn   *types.Func   // declared object; nil for literals
	G    *cfg.CFG
}

// Name returns a human-readable label for diagnostics.
func (fc *FuncCFG) Name() string {
	if fc.Decl != nil {
		return fc.Decl.Name.Name
	}
	return "func literal"
}

// resultNames lists the identifiers of the function's named results.
func (fc *FuncCFG) resultNames() []*ast.Ident {
	var results *ast.FieldList
	if fc.Decl != nil {
		results = fc.Decl.Type.Results
	} else if fc.Lit != nil {
		results = fc.Lit.Type.Results
	}
	if results == nil {
		return nil
	}
	var names []*ast.Ident
	for _, field := range results.List {
		names = append(names, field.Names...)
	}
	return names
}

func runCtrlFlow(pass *analysis.Pass) (any, error) {
	result := &CFGResult{ByBody: map[*ast.BlockStmt]*FuncCFG{}}
	add := func(fc *FuncCFG) {
		fc.G = cfg.Build(fc.Body)
		result.ByBody[fc.Body] = fc
		result.Order = append(result.Order, fc)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn, _ := pass.TypesInfo.Defs[n.Name].(*types.Func)
					add(&FuncCFG{Body: n.Body, Decl: n, Fn: fn})
				}
			case *ast.FuncLit:
				add(&FuncCFG{Body: n.Body, Lit: n})
			}
			return true
		})
	}
	return result, nil
}
