package lint

import (
	"go/types"

	"repro/internal/lint/analysis"
)

// A labelClosure describes one transitive label set over the package's
// static calls — "the collectives it reaches", "the write roots whose
// errors it returns", "the locks it acquires". Its members are the
// declared functions; a call made inside a function literal counts as a
// call by the declaration the literal is nested in, since a closure the
// function creates makes calls its callers must account for.
type labelClosure struct {
	// seed gives a function's own labels before any callee contributes,
	// or nil to leave the function out (it then carries no set and
	// exports no fact).
	seed func(*analysis.Func) map[string]bool
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

// closure solves c as the least fixpoint over pass's function index,
// exports the members' sets, and returns the lookup call sites use: a
// callee's direct label, else its closed set when it is a member, else
// its imported fact.
func closure(pass *analysis.Pass, c labelClosure) func(*types.Func) map[string]bool {
	funcs, pkg := pass.Funcs(), pass.Pkg
	sets := map[*types.Func]map[string]bool{}
	for _, f := range funcs {
		if f.Fn == nil {
			continue
		}
		if set := c.seed(f); set != nil {
			sets[f.Fn] = set
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
		for _, f := range funcs {
			decl := f
			for decl.Outer != nil {
				decl = decl.Outer
			}
			set, ok := sets[decl.Fn]
			if !ok {
				continue
			}
			for _, call := range f.Calls {
				for label := range labels(call.Callee) {
					if !set[label] {
						set[label] = true
						changed = true
					}
				}
			}
		}
	}
	for _, f := range funcs {
		if set := sets[f.Fn]; len(set) > 0 {
			c.export(f.Fn, sortedKeys(set))
		}
	}
	return labels
}
