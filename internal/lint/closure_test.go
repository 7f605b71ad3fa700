package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"

	"repro/internal/lint/analysis"
)

// TestClosureFollowsEnclosingFunction pins labelClosure's edges: a call
// made in a literal, however deeply nested, is a call by the declaration
// it sits in; calls through function values and interface methods reach
// no body and carry no label.
func TestClosureFollowsEnclosingFunction(t *testing.T) {
	const src = `package p

type I interface{ leaf() }

func Top() {
	f := func() {
		g := func() { leaf() }
		g()
	}
	f()
}

func Mid() { Top() }

func ViaValue(fv func()) { fv() }

func ViaIface(i I) { i.leaf() }

func leaf() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.NewTypesInfo()
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}

	got := map[string][]string{}
	a := &analysis.Analyzer{Name: "closure", Run: func(pass *analysis.Pass) error {
		closure(pass, labelClosure{
			seed:     func(*analysis.Func) map[string]bool { return map[string]bool{} },
			direct:   func(fn *types.Func) (string, bool) { return "leaf", fn.Name() == "leaf" },
			imported: func(*types.Func) []string { return nil },
			export:   func(fn *types.Func, labels []string) { got[fn.Name()] = labels },
		})
		return nil
	}}
	base := &analysis.Pass{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info}
	if err := analysis.Execute([]*analysis.Analyzer{a}, base, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"Top": {"leaf"}, "Mid": {"leaf"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("closed label sets %v, want %v", got, want)
	}
}
