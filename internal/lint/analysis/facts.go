package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sync"
)

// A Fact is an observation about an object or a package, exported by an
// analyzer while analyzing one package and importable by the same
// analyzer while analyzing a dependent package. Concrete fact types must
// be pointers to structs. The AFact marker method mirrors the upstream
// interface.
type Fact interface {
	AFact()
}

// ObjectKey returns a driver-stable key for an object facts can attach
// to, unique within the object's package: "F" for a package-level
// function, "T.M" for a method (pointer receivers are stripped). The
// upstream implementation uses go/types objectpath; this mirror only
// needs keys for functions and methods, which is what the workflowlint
// fact producers export. ok is false for objects facts cannot attach to.
//
// The key is computed from names only, so it is identical whether the
// object came from type-checking the package's source or from reading
// its export data — the property that lets facts recorded under one view
// be found under the other.
func ObjectKey(obj types.Object) (string, bool) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	recv := sig.Recv()
	if recv == nil {
		return fn.Name(), true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	return named.Obj().Name() + "." + fn.Name(), true
}

// factKey identifies one fact slot: a package, an object within it (""
// for package-level facts), and the fact's concrete type.
type factKey struct {
	pkg string
	obj string
	typ reflect.Type
}

// A FactStore accumulates facts across the packages of one driver run:
// the driver keeps one store for the whole dependency-ordered walk, so
// facts never leave the process.
type FactStore struct {
	mu    sync.Mutex
	facts map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[factKey]Fact{}}
}

// Bind installs the store's fact accessors on a pass. Exported facts are
// keyed under the pass's own package; imports may name any package seen
// earlier in the run.
func (s *FactStore) Bind(pass *Pass) {
	pass.ExportObjectFact = func(obj types.Object, fact Fact) {
		if obj == nil || obj.Pkg() == nil {
			return
		}
		if pass.Pkg != nil && obj.Pkg() != pass.Pkg {
			panic(fmt.Sprintf("analysis: %s: ExportObjectFact for object %s of foreign package %s",
				pass.Analyzer.Name, obj.Name(), obj.Pkg().Path()))
		}
		key, ok := ObjectKey(obj)
		if !ok {
			return
		}
		s.put(factKey{obj.Pkg().Path(), key, reflect.TypeOf(fact)}, fact)
	}
	pass.ImportObjectFact = func(obj types.Object, fact Fact) bool {
		if obj == nil || obj.Pkg() == nil {
			return false
		}
		key, ok := ObjectKey(obj)
		if !ok {
			return false
		}
		return s.get(factKey{obj.Pkg().Path(), key, reflect.TypeOf(fact)}, fact)
	}
	pass.ExportPackageFact = func(fact Fact) {
		if pass.Pkg == nil {
			return
		}
		s.put(factKey{pass.Pkg.Path(), "", reflect.TypeOf(fact)}, fact)
	}
	pass.ImportPackageFact = func(pkg *types.Package, fact Fact) bool {
		if pkg == nil {
			return false
		}
		return s.get(factKey{pkg.Path(), "", reflect.TypeOf(fact)}, fact)
	}
}

func (s *FactStore) put(key factKey, fact Fact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.facts[key] = fact
}

// get copies the stored fact (if any) into the caller's pointer.
func (s *FactStore) get(key factKey, fact Fact) bool {
	s.mu.Lock()
	stored, ok := s.facts[key]
	s.mu.Unlock()
	if !ok {
		return false
	}
	dst := reflect.ValueOf(fact)
	src := reflect.ValueOf(stored)
	if dst.Kind() != reflect.Pointer || src.Kind() != reflect.Pointer || dst.Type() != src.Type() {
		return false
	}
	dst.Elem().Set(src.Elem())
	return true
}
