package analysis

import (
	"fmt"
	"go/types"
)

// Execute applies analyzers — plus the transitive closure of their
// Requires, scheduled dependency-first — to the single package described
// by base (Fset, Files, Pkg, TypesInfo; its other fields are ignored).
// Both drivers (the CLI and analysistest) funnel through here so
// scheduling, result plumbing, and fact binding behave identically.
//
// store binds the cross-package fact API on every pass; pass nil to run
// without facts (imports all miss, exports are dropped). report receives
// each diagnostic together with the analyzer that produced it — only for
// the analyzers explicitly requested, not for Requires-only
// prerequisites, mirroring upstream driver behavior.
func Execute(analyzers []*Analyzer, base *Pass, store *FactStore, report func(*Analyzer, Diagnostic)) error {
	order, err := schedule(analyzers)
	if err != nil {
		return err
	}
	requested := map[*Analyzer]bool{}
	for _, a := range analyzers {
		requested[a] = true
	}
	results := map[*Analyzer]any{}
	for _, a := range order {
		resultOf := map[*Analyzer]any{}
		for _, req := range a.Requires {
			resultOf[req] = results[req]
		}
		a := a // report closure captures per-iteration analyzer
		pass := &Pass{
			Analyzer:  a,
			Fset:      base.Fset,
			Files:     base.Files,
			Pkg:       base.Pkg,
			TypesInfo: base.TypesInfo,
			ResultOf:  resultOf,
			Report: func(d Diagnostic) {
				if requested[a] && report != nil {
					report(a, d)
				}
			},
		}
		if store != nil {
			store.Bind(pass)
		} else {
			bindNoFacts(pass)
		}
		res, err := a.Run(pass)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		results[a] = res
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

// schedule returns analyzers plus transitive Requires in an order where
// every prerequisite precedes its dependents, rejecting cycles.
func schedule(analyzers []*Analyzer) ([]*Analyzer, error) {
	var order []*Analyzer
	state := map[*Analyzer]int{} // 0 unseen, 1 visiting, 2 done
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		switch state[a] {
		case 1:
			return fmt.Errorf("analysis: Requires cycle through %s", a.Name)
		case 2:
			return nil
		}
		state[a] = 1
		for _, req := range a.Requires {
			if err := visit(req); err != nil {
				return err
			}
		}
		state[a] = 2
		order = append(order, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// bindNoFacts installs inert fact accessors so analyzers can call the
// fact API unconditionally.
func bindNoFacts(pass *Pass) {
	pass.ExportObjectFact = func(types.Object, Fact) {}
	pass.ImportObjectFact = func(types.Object, Fact) bool { return false }
	pass.ExportPackageFact = func(Fact) {}
	pass.ImportPackageFact = func(*types.Package, Fact) bool { return false }
}
