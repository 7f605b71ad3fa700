package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/ssa"
	"repro/internal/lint/analysis/taint"
)

// AllocBound tracks lengths and counts decoded from external bytes —
// binary.Uint16/32/64, varints, strconv parses — along SSA-lite
// def-use chains into allocation sizes (make), index expressions, and
// slice bounds, and reports when no bound check intervenes. The threat
// is not adversarial input so much as the corruption this repo already
// injects on purpose (PR 7's chaos harness): a flipped length prefix in
// a product or checkpoint header must fail validation, not drive a
// multi-gigabyte make or an out-of-range index panic in the middle of a
// campaign.
//
// Any comparison of the decoded value counts as validation (the engine
// treats compared registers as sanitized), as do the min/max builtins.
// Summaries cross function and package boundaries as Facts, so a
// decode-in-one-function, allocate-in-another split is still caught.
// Test files get findings suppressed; their summaries still feed the
// fixpoint.
var AllocBound = &analysis.Analyzer{
	Name:      "allocbound",
	Doc:       "flag unvalidated decoded lengths reaching make sizes, index expressions, or slice bounds",
	Run:       runAllocBound,
	Requires:  []*analysis.Analyzer{SSAFlow},
	FactTypes: []analysis.Fact{(*AllocBoundSummary)(nil)},
}

// AllocBoundSummary carries one function's taint summary across package
// boundaries.
type AllocBoundSummary struct {
	S taint.Summary
}

func (*AllocBoundSummary) AFact() {}

func init() { analysis.RegisterFactType(&AllocBoundSummary{}) }

// allocSource classifies decoded-from-bytes values.
func allocSource(v *ssa.Value) (string, bool) {
	if v.Op != ssa.OpCall || v.Callee == nil || v.Callee.Pkg() == nil {
		return "", false
	}
	fn := v.Callee
	switch fn.Pkg().Path() {
	case "encoding/binary":
		switch fn.Name() {
		case "Uint16", "Uint32", "Uint64", // ByteOrder methods
			"Uvarint", "Varint", "ReadUvarint", "ReadVarint":
			return "binary." + fn.Name(), true
		}
	case "strconv":
		switch fn.Name() {
		case "Atoi", "ParseInt", "ParseUint", "ParseFloat":
			return "strconv." + fn.Name(), true
		}
	}
	return "", false
}

// allocSinks lists size/index/bound operands. Map indexing is excluded:
// a decoded map key cannot panic or over-allocate.
func allocSinks(info *types.Info) func(v *ssa.Value) []taint.SinkUse {
	baseIndexable := func(v *ssa.Value) bool {
		ie, ok := v.Expr.(*ast.IndexExpr)
		if !ok {
			return true // no expression context: stay conservative
		}
		tv, ok := info.Types[ie.X]
		if !ok || tv.Type == nil {
			return true
		}
		switch tv.Type.Underlying().(type) {
		case *types.Map:
			return false
		}
		return true
	}
	return func(v *ssa.Value) []taint.SinkUse {
		switch v.Op {
		case ssa.OpMake:
			var uses []taint.SinkUse
			for _, a := range v.Args {
				uses = append(uses, taint.SinkUse{Arg: a, Sink: "make size"})
			}
			return uses
		case ssa.OpIndex:
			if len(v.Args) == 2 && baseIndexable(v) {
				return []taint.SinkUse{{Arg: v.Args[1], Sink: "index expression"}}
			}
		case ssa.OpSlice:
			var uses []taint.SinkUse
			for _, a := range v.Args[1:] {
				uses = append(uses, taint.SinkUse{Arg: a, Sink: "slice bound"})
			}
			return uses
		}
		return nil
	}
}

// allocSanitizer: the min/max builtins clamp their operands.
func allocSanitizer(v *ssa.Value) bool {
	return v.Op == ssa.OpCall && v.Callee == nil && (v.Name == "min" || v.Name == "max")
}

func runAllocBound(pass *analysis.Pass) (any, error) {
	r := newReporter(pass)
	runTaint(pass, pass.ResultOf[SSAFlow].(*SSAResult),
		taint.Spec{
			Source:              allocSource,
			Sinks:               allocSinks(pass.TypesInfo),
			Sanitizer:           allocSanitizer,
			BoundCheckSanitizes: true,
		},
		func() (analysis.Fact, *taint.Summary) { f := &AllocBoundSummary{}; return f, &f.S },
		func(pos token.Pos, f taint.Finding) {
			r.reportf(pos,
				"length decoded by %s reaches %s unvalidated (witness: %s); a corrupt header becomes a huge allocation or an index panic — bound-check the value first",
				f.Source, f.Sink, strings.Join(f.Path, " → "))
		})
	return nil, nil
}
