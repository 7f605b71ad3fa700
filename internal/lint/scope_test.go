package lint

import (
	"os"
	"os/exec"
	"path"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDeterministicCoversCore holds deterministicPkgs to the code: every
// in-repo package internal/core transitively imports feeds a
// byte-compared artifact, so each must be in the deterministic table or
// carry a reasoned exemption in deterministicExempt.
func TestDeterministicCoversCore(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "repro/internal/core").Output()
	if err != nil {
		t.Fatalf("go list -deps repro/internal/core: %v", err)
	}
	seen := 0
	for _, pkg := range strings.Fields(string(out)) {
		if !strings.HasPrefix(pkg, "repro/internal/") {
			continue
		}
		seen++
		name := path.Base(pkg)
		switch {
		case deterministicPkgs[name] && deterministicExempt[name]:
			t.Errorf("%s is both deterministic and exempt", pkg)
		case !deterministicPkgs[name] && !deterministicExempt[name]:
			t.Errorf("%s is imported by internal/core but is neither in deterministicPkgs nor in deterministicExempt (scope.go)", pkg)
		}
	}
	if seen < 20 {
		t.Fatalf("go list named only %d in-repo packages under internal/core; the closure is not being read", seen)
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
