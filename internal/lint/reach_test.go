//go:build reach

package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// unlinkedAllowed names the declared internal functions no binary links
// on purpose, each with its reason: a reference that tests compare
// against, a function pending a named ROADMAP item, or a test helper
// shared by the tests of several packages.
var unlinkedAllowed = map[string]string{
	"repro/internal/halo.NaiveFOF":               "reference: the all-pairs finder FOF is fuzzed against",
	"repro/internal/fft.Forward":                 "reference: the standalone 1-D DFT, held to a naive DFT by the fft tests",
	"repro/internal/fft.Inverse":                 "reference: the inverse of fft.Forward, held to complex division",
	"repro/internal/fft.transform":               "reference: the butterflies of fft.Forward and fft.Inverse",
	"repro/internal/powerspec.MeasureParallel":   "pending ROADMAP 23: the distributed power spectrum",
	"repro/internal/integrity.Ledger.Downstream": "pending ROADMAP 22(b): the real pipeline's ledger",
	"repro/internal/fault.MustNew":               "test helper: the fault, sched, fs and core tests build injectors with it",
}

// TestEveryFunctionIsLinked holds every function declared under
// internal/ to what the binaries link: each one is in a cmd binary or in
// bench, built without inlining so no call hides in its caller, or it is
// listed in unlinkedAllowed with a reason. A dead function fails, and so
// does an allowlist entry that is linked or no longer declared.
func TestEveryFunctionIsLinked(t *testing.T) {
	dir := t.TempDir()
	linked := map[string]bool{}
	for _, pkg := range goList(t, "repro/cmd/...", "repro/bench") {
		bin := filepath.Join(dir, path.Base(pkg))
		if out, err := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "addr type name": a shape name inside the name may hold spaces.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") && strings.HasPrefix(f[2], "repro/internal/") {
				linked[symbolKey(f[2])] = true
			}
		}
	}
	if len(linked) < 500 {
		t.Fatalf("the binaries link only %d internal functions; the symbols are not being read", len(linked))
	}

	declared := map[string]token.Position{}
	fset := token.NewFileSet()
	importPath := func(dir string) string { return "repro/internal" + strings.TrimPrefix(filepath.ToSlash(dir), "..") }
	err := filepath.WalkDir("..", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || unreachedAllowed[importPath(p)]) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				if fn.Body != nil && len(fn.Body.List) == 0 {
					continue // a marker method, such as AFact, is never called
				}
				recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*"), "[")
				name = recv + "." + name
			}
			declared[importPath(filepath.Dir(p))+"."+name] = fset.Position(fn.Pos())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range sortedKeys(declared) {
		if pos := declared[key]; !linked[key] && unlinkedAllowed[key] == "" {
			t.Errorf("%s: %s is linked into no cmd binary and not into bench; delete it, or allowlist it in unlinkedAllowed with a reason", pos, key)
		}
	}
	for _, key := range sortedKeys(unlinkedAllowed) {
		if _, ok := declared[key]; !ok {
			t.Errorf("unlinkedAllowed names %s, which is no longer declared; drop the entry", key)
		} else if linked[key] {
			t.Errorf("unlinkedAllowed names %s, which a binary now links; drop the entry", key)
		}
	}
}

// wrapperRe matches the element after a function's name in the symbol of
// a closure (funcN), a defer or go wrapper, or a numbered init or
// package-level closure: such a symbol belongs to that function.
var wrapperRe = regexp.MustCompile(`^(func|deferwrap|gowrap)?[0-9]*$`)

// symbolKey maps a linker symbol to the declaration it belongs to, as
// "importpath.F" or "importpath.T.M": instantiation brackets are dropped
// (shape names nest brackets and carry quoted struct tags), (*T).M is
// T.M, and a method value wrapper (-fm) is its method.
func symbolKey(sym string) string {
	var b strings.Builder
	depth, quoted := 0, false
	for i := 0; i < len(sym); i++ {
		switch c := sym[i]; {
		case quoted && c == '\\':
			i++
		case c == '"' && depth > 0:
			quoted = !quoted
		case quoted:
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0 && c != '(' && c != ')' && c != '*':
			b.WriteByte(c)
		}
	}
	s := b.String()
	slash := strings.LastIndex(s, "/")
	dot := slash + strings.Index(s[slash:], ".")
	parts := strings.Split(strings.TrimSuffix(s[dot+1:], "-fm"), ".")
	if len(parts) > 1 && !wrapperRe.MatchString(parts[1]) {
		return s[:dot] + "." + parts[0] + "." + parts[1]
	}
	return s[:dot] + "." + parts[0]
}
