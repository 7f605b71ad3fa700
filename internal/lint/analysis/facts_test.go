package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"
)

// testFact is a representative fact payload: a slice plus a scalar.
type testFact struct {
	Names []string
	Depth int
}

func (*testFact) AFact() {}

type otherFact struct {
	Root string
}

func (*otherFact) AFact() {}

// checkPkg type-checks a tiny package and returns it with the object of
// its sole function.
func checkPkg(t *testing.T, path, src, fn string) (*types.Package, types.Object) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	obj := pkg.Scope().Lookup(fn)
	if obj == nil {
		t.Fatalf("no object %s in %s", fn, path)
	}
	return pkg, obj
}

// TestFactsRoundTrip exports facts against one type-checked view of a
// package and imports them against a *different* type-checked view of
// the same source, through one store — the cross-view identity the
// ObjectKey scheme exists to provide (the driver type-checks a package
// from source, its dependents see it through export data).
func TestFactsRoundTrip(t *testing.T) {
	const src = `package dep
func Helper() {}
`
	pkg1, obj1 := checkPkg(t, "dep", src, "Helper")

	store := NewFactStore()
	pass := &Pass{Analyzer: &Analyzer{Name: "t"}, Pkg: pkg1}
	store.Bind(pass)
	want := &testFact{Names: []string{"Barrier", "AllGather"}, Depth: 2}
	pass.ExportObjectFact(obj1, want)
	pass.ExportPackageFact(&otherFact{Root: "gio.WriteFile"})

	// A second, independent type-check of the same source: distinct
	// types.Object identities, same keys.
	pkg2, obj2 := checkPkg(t, "dep", src, "Helper")
	if obj1 == obj2 {
		t.Fatal("the two type-checks share an object; the test proves nothing")
	}
	pass2 := &Pass{Analyzer: &Analyzer{Name: "t"}, Pkg: pkg2}
	store.Bind(pass2)

	var got testFact
	if !pass2.ImportObjectFact(obj2, &got) {
		t.Fatal("object fact not found under the second view")
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("object fact = %+v, want %+v", got, *want)
	}
	var gotPkg otherFact
	if !pass2.ImportPackageFact(pkg2, &gotPkg) {
		t.Fatal("package fact not found under the second view")
	}
	if gotPkg.Root != "gio.WriteFile" {
		t.Fatalf("package fact = %+v", gotPkg)
	}

	// Absent facts must miss, not fabricate.
	var missing otherFact
	if pass2.ImportObjectFact(obj2, &missing) {
		t.Fatal("imported a fact type that was never exported for the object")
	}
}

// TestObjectKey covers the function and method key forms.
func TestObjectKey(t *testing.T) {
	const src = `package dep
type T struct{}
func (t *T) M() {}
func F() {}
var V int
`
	pkg, objF := checkPkg(t, "dep", src, "F")
	if key, ok := ObjectKey(objF); !ok || key != "F" {
		t.Fatalf("ObjectKey(F) = %q, %v", key, ok)
	}
	tObj := pkg.Scope().Lookup("T").Type().(*types.Named)
	m, _, _ := types.LookupFieldOrMethod(tObj, true, pkg, "M")
	if key, ok := ObjectKey(m); !ok || key != "T.M" {
		t.Fatalf("ObjectKey(T.M) = %q, %v", key, ok)
	}
	if _, ok := ObjectKey(pkg.Scope().Lookup("V")); ok {
		t.Fatal("ObjectKey accepted a var; only funcs carry facts here")
	}
}
