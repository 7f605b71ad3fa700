package analysis

import (
	"fmt"
	"go/types"
	"sync"
)

// Execute applies analyzers, in order, to the single package described
// by base (Fset, Files, Pkg, TypesInfo; its other fields are ignored).
// Both drivers (the CLI and analysistest) funnel through here so the
// function index and fact binding behave identically.
//
// store binds the cross-package fact API on every pass; pass nil to run
// without facts (imports all miss, exports are dropped). report receives
// each diagnostic together with the analyzer that produced it.
func Execute(analyzers []*Analyzer, base *Pass, store *FactStore, report func(*Analyzer, Diagnostic)) error {
	funcs := sync.OnceValue(func() []*Func { return buildIndex(base.Files, base.TypesInfo) })
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      base.Fset,
			Files:     base.Files,
			Pkg:       base.Pkg,
			TypesInfo: base.TypesInfo,
			Funcs:     funcs,
			Report: func(d Diagnostic) {
				if report != nil {
					report(a, d)
				}
			},
		}
		if store != nil {
			store.Bind(pass)
		} else {
			bindNoFacts(pass)
		}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return nil
}

// FactProducers filters analyzers to those that export or import facts
// (FactTypes non-empty). Drivers run only these over dependency packages:
// fact-free analyzers cannot influence downstream analysis, so skipping
// them keeps dependency-only passes cheap.
func FactProducers(analyzers []*Analyzer) []*Analyzer {
	var out []*Analyzer
	for _, a := range analyzers {
		if len(a.FactTypes) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// bindNoFacts installs inert fact accessors so analyzers can call the
// fact API unconditionally.
func bindNoFacts(pass *Pass) {
	pass.ExportObjectFact = func(types.Object, Fact) {}
	pass.ImportObjectFact = func(types.Object, Fact) bool { return false }
	pass.ExportPackageFact = func(Fact) {}
	pass.ImportPackageFact = func(*types.Package, Fact) bool { return false }
}
