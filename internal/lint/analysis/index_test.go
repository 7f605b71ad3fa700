package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"testing"
)

const indexSrc = `package p

type I interface{ M() }

type T struct{}

func (T) M() {}

func helper() {}

func Top(i I, fv func()) {
	helper()
	i.M()
	fv()
	var t T
	t.M()
	f := func() {
		helper2()
		g := func() { leaf() }
		g()
	}
	f()
}

func helper2() {}

func leaf() {}

var pkgLit = func() { leaf() }
`

// indexBase parses and type-checks indexSrc into the base pass Execute
// takes.
func indexBase(t *testing.T) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", indexSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := NewTypesInfo()
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Pass{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info}
}

// indexOf runs analyzers that each ask for the index twice and returns
// what every request got.
func indexOf(t *testing.T, base *Pass, analyzers int) [][]*Func {
	t.Helper()
	var got [][]*Func
	var as []*Analyzer
	for i := 0; i < analyzers; i++ {
		as = append(as, &Analyzer{Name: fmt.Sprint("a", i), Run: func(pass *Pass) error {
			got = append(got, pass.Funcs(), pass.Funcs())
			return nil
		}})
	}
	if err := Execute(as, base, nil, nil); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestIndexEntries checks the index's order, enclosing-function links
// and static call sites.
func TestIndexEntries(t *testing.T) {
	base := indexBase(t)
	funcs := indexOf(t, base, 1)[0]
	name := func(f *Func) string {
		if f == nil {
			return "<nil>"
		}
		if f.Fn != nil {
			return f.Fn.Name()
		}
		return fmt.Sprint("lit@", base.Fset.Position(f.Lit.Pos()).Line)
	}

	var order []string
	for _, f := range funcs {
		order = append(order, name(f))
	}
	want := []string{"M", "helper", "Top", "lit@17", "lit@19", "helper2", "leaf", "lit@29"}
	if !slices.Equal(order, want) {
		t.Fatalf("index order %v, want %v (declarations and literals interleaved in source order)", order, want)
	}

	byName := map[string]*Func{}
	for _, f := range funcs {
		byName[name(f)] = f
		if f.CFG == nil || f.Body == nil {
			t.Errorf("%s: missing body or CFG", name(f))
		}
		if (f.Decl == nil) == (f.Lit == nil) || (f.Fn != nil) != (f.Decl != nil) {
			t.Errorf("%s: Decl, Lit and Fn disagree", name(f))
		}
	}
	outer := map[string]string{"Top": "<nil>", "lit@17": "Top", "lit@19": "lit@17", "lit@29": "<nil>"}
	for f, want := range outer {
		if got := name(byName[f].Outer); got != want {
			t.Errorf("%s.Outer = %s, want %s", f, got, want)
		}
	}

	// Calls through the interface value i, the function values fv, f
	// and g, and calls made by nested literals are not Top's.
	calls := map[string][]string{
		"Top":    {"helper", "M"},
		"lit@17": {"helper2"},
		"lit@19": {"leaf"},
		"lit@29": {"leaf"},
		"leaf":   nil,
	}
	for f, want := range calls {
		var got []string
		for _, c := range byName[f].Calls {
			got = append(got, c.Callee.Name())
			if Callee(base.TypesInfo, c.Site) != c.Callee {
				t.Errorf("%s: call site at %s does not resolve to %s", f, base.Fset.Position(c.Site.Pos()), c.Callee.Name())
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s calls %v, want %v", f, got, want)
		}
	}
	if m := byName["Top"].Calls[1].Callee; types.IsInterface(m.Type().(*types.Signature).Recv().Type()) {
		t.Errorf("Top's M edge resolves to the interface method, want T.M")
	}
}

// TestIndexBuiltOncePerPackage checks that every analyzer run on a
// package, and every request within one, shares one index.
func TestIndexBuiltOncePerPackage(t *testing.T) {
	got := indexOf(t, indexBase(t), 3)
	if len(got) != 6 {
		t.Fatalf("%d index requests, want 6", len(got))
	}
	for i, funcs := range got {
		if len(funcs) == 0 || funcs[0] != got[0][0] {
			t.Fatalf("request %d got a different index: rebuilt instead of shared", i)
		}
	}
}
