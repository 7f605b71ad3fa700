package lint

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDeterministicCoversCore holds deterministicPkgs to the code: every
// in-repo package internal/core transitively imports feeds a
// byte-compared artifact, so each must be in the deterministic table or
// carry a reasoned exemption in deterministicExempt. An exemption for a
// package outside that closure is stale.
func TestDeterministicCoversCore(t *testing.T) {
	seen := map[string]bool{}
	for _, pkg := range goList(t, "-deps", "repro/internal/core") {
		if !strings.HasPrefix(pkg, "repro/internal/") {
			continue
		}
		name := path.Base(pkg)
		seen[name] = true
		switch {
		case deterministicPkgs[name] && deterministicExempt[name]:
			t.Errorf("%s is both deterministic and exempt", pkg)
		case !deterministicPkgs[name] && !deterministicExempt[name]:
			t.Errorf("%s is imported by internal/core but is neither in deterministicPkgs nor in deterministicExempt (scope.go)", pkg)
		}
	}
	if len(seen) < 20 {
		t.Fatalf("go list named only %d in-repo packages under internal/core; the closure is not being read", len(seen))
	}
	for name := range deterministicExempt {
		if !seen[name] {
			t.Errorf("deterministicExempt names %s, which internal/core does not import; drop it (scope.go)", name)
		}
	}
}

// goList runs go list with args and returns the package paths it prints.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
	}
	return strings.Fields(string(out))
}

// unreachedAllowed names the internal packages no binary imports on
// purpose: test support only.
var unreachedAllowed = map[string]bool{
	"repro/internal/lint/analysistest": true,
	"repro/internal/testsupport":       true,
}

// TestEveryInternalPackageIsReached holds the tree to what its binaries
// run: every internal package is in the import closure of a command or
// of the benchmark, or it is dead code to delete.
func TestEveryInternalPackageIsReached(t *testing.T) {
	reached := map[string]bool{}
	for _, pkg := range goList(t, "-deps", "repro/cmd/...", "repro/bench") {
		reached[pkg] = true
	}
	all := goList(t, "repro/internal/...")
	if len(all) < 20 {
		t.Fatalf("go list named only %d internal packages; the tree is not being read", len(all))
	}
	for _, pkg := range all {
		if !reached[pkg] && !unreachedAllowed[pkg] {
			t.Errorf("%s is imported by no cmd/* binary and not by bench; delete it or wire it in", pkg)
		}
	}
	for pkg := range unreachedAllowed {
		if reached[pkg] {
			t.Errorf("%s is allowlisted as unreached but a binary imports it; drop it from unreachedAllowed", pkg)
		}
	}
}

func scopeList(set map[string]bool) string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

var designRow = regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|.*\\| ([^|]*) \\|$")

// TestDesignRoster holds DESIGN.md §10's analyzer table to the code:
// its rows are Analyzers() in order, and the scope cells spell out the
// tables of scope.go, so neither the roster nor a scope list can drift.
func TestDesignRoster(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "\n## 10. ")
	end := strings.Index(doc, "\n## 11. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md: section 10 not found")
	}
	scope := map[string]string{}
	var rows []string
	for _, m := range designRow.FindAllStringSubmatch(doc[start:end], -1) {
		rows = append(rows, m[1])
		scope[m[1]] = m[2]
	}
	var want []string
	for _, a := range Analyzers() {
		want = append(want, a.Name)
	}
	if strings.Join(rows, " ") != strings.Join(want, " ") {
		t.Errorf("DESIGN.md §10 table rows:\n  %v\nlint.Analyzers():\n  %v", rows, want)
	}
	for _, c := range []struct{ analyzer, list string }{
		{"dettaint", scopeList(deterministicPkgs)},
		{"lockorder", scopeList(rankExchangePkgs)},
		{"atomicwrite", scopeList(directWritePkgs)},
		{"dettaint", scopeList(productWritePkgs)},
		{"errflow", scopeList(productWritePkgs)},
	} {
		if !strings.Contains(scope[c.analyzer], c.list) {
			t.Errorf("DESIGN.md §10: the scope cell of %s does not list %q (scope.go)", c.analyzer, c.list)
		}
	}
}

// TestNoStaleAllows holds every //lint:allow in the repository's Go
// files (fixtures under testdata aside) to the roster: a suppression
// naming no analyzer of Analyzers() suppresses nothing, so it is a stale
// audit point that silently outlived its analyzer.
func TestNoStaleAllows(t *testing.T) {
	known := map[string]bool{"all": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("../..", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (p != "../.." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files++
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				// The names are the first field, comma-separated; the
				// reason follows.
				for _, n := range strings.Split(strings.Fields(m[1])[0], ",") {
					if n != "" && !known[n] {
						t.Errorf("%s: //lint:allow names %q, which is not in lint.Analyzers()", fset.Position(c.Pos()), n)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("read only %d Go files; the repository is not being walked", files)
	}
}
