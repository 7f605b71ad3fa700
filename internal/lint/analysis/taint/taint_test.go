package taint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint/analysis/cfg"
	"repro/internal/lint/analysis/ssa"
	"repro/internal/lint/analysis/taint"
)

// testSpec wires the engine to marker functions: src() originates
// taint, sink(...) must not receive it, clean(x) launders, scrub(x)
// sanitizes its argument in place.
func testSpec() taint.Spec {
	calleeNamed := func(v *ssa.Value, name string) bool {
		return v.Op == ssa.OpCall && v.Callee != nil && v.Callee.Name() == name
	}
	return taint.Spec{
		Source: func(v *ssa.Value) (string, bool) {
			if calleeNamed(v, "src") {
				return "src()", true
			}
			return "", false
		},
		Sinks: func(v *ssa.Value) []taint.SinkUse {
			if calleeNamed(v, "sink") {
				var uses []taint.SinkUse
				for _, a := range v.Args {
					uses = append(uses, taint.SinkUse{Arg: a, Sink: "sink()"})
				}
				return uses
			}
			return nil
		},
		Sanitizer: func(v *ssa.Value) bool {
			return calleeNamed(v, "clean")
		},
		InPlaceSanitizer: func(v *ssa.Value) bool {
			return calleeNamed(v, "scrub")
		},
	}
}

// analyze lowers every function in src and runs the engine over the
// package.
func analyze(t *testing.T, src string, spec taint.Spec) (*taint.Result, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Error: func(error) {}}
	conf.Check("p", fset, []*ast.File{f}, info) //nolint:errcheck

	var fns []taint.FuncInfo
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		g := cfg.Build(fd.Body)
		var fn *types.Func
		var sig *types.Signature
		if tf, ok := info.Defs[fd.Name].(*types.Func); ok {
			fn = tf
			sig, _ = tf.Type().(*types.Signature)
		}
		fns = append(fns, taint.FuncInfo{Fn: fn, SSA: ssa.Lower(fd.Name.Name, fd.Body, g, sig, info)})
	}
	e := &taint.Engine{Spec: spec}
	return e.AnalyzePackage(fns), fset
}

const markers = `
func src() int { return 0 }
func sink(vs ...int) {}
func clean(v int) int { return v }
func scrub(v []int) {}
`

func findingLines(fset *token.FileSet, r *taint.Result) []string {
	var out []string
	for _, f := range r.Findings {
		out = append(out, fset.Position(token.Pos(f.Pos)).String()+" "+f.Source+" -> "+f.Sink)
	}
	return out
}

func TestDirectFlow(t *testing.T) {
	r, _ := analyze(t, `package p
`+markers+`
func f() {
	x := src()
	y := x + 1
	sink(y)
}`, testSpec())
	if len(r.Findings) != 1 {
		t.Fatalf("want 1 finding, got %+v", r.Findings)
	}
	f := r.Findings[0]
	if f.Source != "src()" || f.Sink != "sink()" {
		t.Errorf("bad finding %+v", f)
	}
	// Witness path records the variable hops.
	joined := strings.Join(f.Path, " ")
	if !strings.Contains(joined, "x") || !strings.Contains(joined, "y") {
		t.Errorf("witness path missing variable hops: %q", f.Path)
	}
}

func TestSanitizerStopsFlow(t *testing.T) {
	r, _ := analyze(t, `package p
`+markers+`
func f() {
	x := src()
	sink(clean(x))
}`, testSpec())
	if len(r.Findings) != 0 {
		t.Fatalf("sanitized flow reported: %+v", r.Findings)
	}
}

func TestInPlaceSanitizer(t *testing.T) {
	r, _ := analyze(t, `package p
`+markers+`
func keys(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
func f(m map[int]int) {
	xs := keys(m)
	scrub(xs)
	sink(xs...)
}`, taint.Spec{
		Source: func(v *ssa.Value) (string, bool) {
			if v.Op == ssa.OpRange {
				return "map range", true
			}
			return "", false
		},
		Sinks: testSpec().Sinks,
		InPlaceSanitizer: func(v *ssa.Value) bool {
			return v.Op == ssa.OpCall && v.Callee != nil && v.Callee.Name() == "scrub"
		},
	})
	if len(r.Findings) != 0 {
		t.Fatalf("scrubbed flow reported: %+v", r.Findings)
	}
}

func TestPhiJoinFlow(t *testing.T) {
	r, _ := analyze(t, `package p
`+markers+`
func f(c bool) {
	x := 0
	if c {
		x = src()
	}
	sink(x)
}`, testSpec())
	if len(r.Findings) != 1 {
		t.Fatalf("want 1 finding through the phi, got %+v", r.Findings)
	}
}

func TestInterprocResultTaint(t *testing.T) {
	// Declaration order is deliberately caller-first: the package
	// fixpoint must still resolve mk's summary.
	r, fset := analyze(t, `package p
`+markers+`
func use() {
	sink(mk())
}
func mk() int {
	return src()
}`, testSpec())
	lines := findingLines(fset, r)
	if len(r.Findings) != 1 {
		t.Fatalf("want 1 finding in use(), got %v", lines)
	}
	if !strings.Contains(lines[0], "src.go:9") {
		t.Errorf("finding not at the sink call in use(): %v", lines)
	}
	joined := strings.Join(r.Findings[0].Path, " ")
	if !strings.Contains(joined, "mk()") {
		t.Errorf("witness path missing call hop: %q", r.Findings[0].Path)
	}
}

func TestInterprocParamSink(t *testing.T) {
	r, _ := analyze(t, `package p
`+markers+`
func pass(v int) {
	sink(v)
}
func drive() {
	pass(src())
}`, testSpec())
	if len(r.Findings) != 1 {
		t.Fatalf("want 1 finding at the pass() call site, got %+v", r.Findings)
	}
	// The summary for pass must record param 0 reaching the sink.
	var passSum *taint.Summary
	for fn, s := range r.Summaries {
		if fn.Name() == "pass" {
			passSum = s
		}
	}
	if passSum == nil || len(passSum.Sinks) != 1 || passSum.Sinks[0].Param != 0 {
		t.Errorf("pass summary missing param sink: %+v", passSum)
	}
}

func TestParamFlowChains(t *testing.T) {
	r, _ := analyze(t, `package p
`+markers+`
func id(v int) int { return v }
func f() {
	sink(id(id(src())))
}`, testSpec())
	if len(r.Findings) != 1 {
		t.Fatalf("want 1 finding through chained id(), got %+v", r.Findings)
	}
	var idSum *taint.Summary
	for fn, s := range r.Summaries {
		if fn.Name() == "id" {
			idSum = s
		}
	}
	if idSum == nil || len(idSum.Flows) != 1 || idSum.Flows[0].Param != 0 || idSum.Flows[0].Result != 0 {
		t.Errorf("id summary missing 0->0 flow: %+v", idSum)
	}
}

func TestUnknownCalleePassesThrough(t *testing.T) {
	// wrap has no body in this package and no summary: conservative
	// arg-to-result pass-through must keep the flow alive.
	r, _ := analyze(t, `package p
`+markers+`
func wrap(v int) int
func f() {
	sink(wrap(src()))
}`, testSpec())
	if len(r.Findings) != 1 {
		t.Fatalf("unknown callee dropped taint: %+v", r.Findings)
	}
}

func TestLenStripsTaint(t *testing.T) {
	r, _ := analyze(t, `package p
`+markers+`
func f(vs []int) {
	x := src()
	s := []int{x}
	sink(len(s))
}`, testSpec())
	if len(r.Findings) != 0 {
		t.Fatalf("len() result must not carry content taint: %+v", r.Findings)
	}
}

func TestMemoryDegradedVariable(t *testing.T) {
	// x is address-taken: stores and loads go through the
	// flow-insensitive memory cell, which must still carry taint.
	r, _ := analyze(t, `package p
`+markers+`
func g(p *int) {}
func f() {
	x := 0
	g(&x)
	x = src()
	sink(x)
}`, testSpec())
	if len(r.Findings) != 1 {
		t.Fatalf("memory-degraded flow lost: %+v", r.Findings)
	}
}

func TestTwoRunDeterminism(t *testing.T) {
	src := `package p
` + markers + `
func a() int { return src() }
func b(v int) int { return v + a() }
func c() {
	x := b(src())
	y := x * 2
	sink(y, x)
}`
	run := func() ([]taint.Finding, map[string]*taint.Summary) {
		r, _ := analyze(t, src, testSpec())
		sums := map[string]*taint.Summary{}
		for fn, s := range r.Summaries {
			sums[fn.Name()] = s
		}
		return r.Findings, sums
	}
	f1, s1 := run()
	f2, s2 := run()
	if !reflect.DeepEqual(f1, f2) {
		t.Errorf("findings differ across runs:\n%+v\n%+v", f1, f2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("summaries differ across runs:\n%+v\n%+v", s1, s2)
	}
}
