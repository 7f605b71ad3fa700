// Package analysistest runs analyzers over fixture packages and checks
// their diagnostics against // want comments — a stdlib-only equivalent
// of golang.org/x/tools/go/analysis/analysistest, with the same fixture
// layout (testdata/src/<pkg>/*.go) and expectation syntax:
//
//	rand.Int() // want `global math/rand`
//	bad()      // want "first" "second"
//
// Each // want comment holds one or more Go string literals, each a
// regular expression that must match a diagnostic reported on that line.
// Every diagnostic must be matched by a want, and every want must be
// matched by a diagnostic, else the test fails.
//
// Fixture packages may import the standard library — type-checked from
// GOROOT source (go/importer's "source" compiler), so tests need no
// pre-built export data and no network — and other fixture packages,
// GOPATH-style: `import "giostub"` resolves to testdata/src/giostub.
// Fixture dependencies are themselves analyzed first (facts only,
// diagnostics ignored) so cross-package facts flow exactly as they do
// under the real drivers, through the same analysis.Execute the CLI
// calls.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint/analysis"
)

// The source importer re-type-checks stdlib dependencies from GOROOT
// source; share one instance (and its package cache) across every test
// in the binary so each dependency is checked once.
var (
	sharedFset     = token.NewFileSet()
	sharedImporter = importer.ForCompiler(sharedFset, "source", nil)
	importerMu     sync.Mutex
)

// TestData returns the absolute path of the calling test's testdata
// directory, mirroring the upstream helper.
func TestData() string {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return testdata
}

// Run applies an analyzer to each fixture package (a directory name
// under dir/src) and checks the reported diagnostics against the
// fixtures' // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		pkgdir := filepath.Join(dir, "src", pkg)
		t.Run(pkg, func(t *testing.T) {
			t.Helper()
			runOne(t, pkgdir, a)
		})
	}
}

// fixtureImporter resolves fixture-local imports from dir/src (running
// the analyzer over them first so their facts exist) and falls back to
// the shared GOROOT source importer for the standard library.
type fixtureImporter struct {
	dir      string // testdata root
	analyzer *analysis.Analyzer
	store    *analysis.FactStore
	pkgs     map[string]*types.Package
}

func (imp *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := imp.pkgs[path]; ok {
		return pkg, nil
	}
	pkgdir := filepath.Join(imp.dir, "src", path)
	if st, err := os.Stat(pkgdir); err != nil || !st.IsDir() {
		return sharedImporter.Import(path)
	}
	files, err := parseFixtureFiles(pkgdir)
	if err != nil {
		return nil, err
	}
	info := analysis.NewTypesInfo()
	conf := types.Config{Importer: imp, Error: func(error) {}}
	pkg, err := conf.Check(path, sharedFset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check fixture dependency %s: %w", path, err)
	}
	// Analyze the dependency for its facts; its diagnostics are not under
	// test here (list the package in Run to test them directly).
	base := &analysis.Pass{Fset: sharedFset, Files: files, Pkg: pkg, TypesInfo: info}
	if err := analysis.Execute([]*analysis.Analyzer{imp.analyzer}, base, imp.store, nil); err != nil {
		return nil, fmt.Errorf("analyzing fixture dependency %s: %w", path, err)
	}
	imp.pkgs[path] = pkg
	return pkg, nil
}

func parseFixtureFiles(pkgdir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(pkgdir)
	if err != nil {
		return nil, fmt.Errorf("fixture dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, filepath.Join(pkgdir, e.Name()))
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", pkgdir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(sharedFset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse fixture: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// RunWithFixes applies an analyzer to each fixture package like Run
// (// want comments are still enforced), then applies the diagnostics'
// suggested fixes and compares each changed file against its golden
// sibling (<file>.golden). A fixture file with a golden sibling MUST be
// changed by the fixes, so golden files can't silently go stale.
func RunWithFixes(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		pkgdir := filepath.Join(dir, "src", pkg)
		t.Run(pkg, func(t *testing.T) {
			t.Helper()
			diags := runOne(t, pkgdir, a)
			fixed, err := analysis.ApplyFixes(sharedFset, diags, os.ReadFile)
			if err != nil {
				t.Fatalf("applying fixes: %v", err)
			}
			goldens, err := filepath.Glob(filepath.Join(pkgdir, "*.golden"))
			if err != nil {
				t.Fatal(err)
			}
			checked := map[string]bool{}
			for _, golden := range goldens {
				src := strings.TrimSuffix(golden, ".golden")
				wantSrc, err := os.ReadFile(golden)
				if err != nil {
					t.Fatal(err)
				}
				got, ok := fixed[src]
				if !ok {
					t.Errorf("%s: fixes did not change the file, but a golden exists", src)
					continue
				}
				if string(got) != string(wantSrc) {
					t.Errorf("%s: fixed output differs from golden:\n%s",
						src, analysis.Diff(src, wantSrc, got))
				}
				checked[src] = true
			}
			for file := range fixed {
				if !checked[file] {
					t.Errorf("%s: fixes changed the file but no %s.golden exists", file, filepath.Base(file))
				}
			}
		})
	}
}

func runOne(t *testing.T, pkgdir string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	importerMu.Lock()
	defer importerMu.Unlock()
	files, err := parseFixtureFiles(pkgdir)
	if err != nil {
		t.Fatal(err)
	}
	store := analysis.NewFactStore()
	imp := &fixtureImporter{
		dir:      filepath.Dir(filepath.Dir(pkgdir)), // testdata root (pkgdir = testdata/src/<pkg>)
		analyzer: a,
		store:    store,
		pkgs:     map[string]*types.Package{},
	}
	info := analysis.NewTypesInfo()
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) {}, // collected via the returned error
	}
	pkg, err := conf.Check(files[0].Name.Name, sharedFset, files, info)
	if err != nil {
		t.Fatalf("type-check fixture %s: %v", pkgdir, err)
	}

	var diags []analysis.Diagnostic
	base := &analysis.Pass{Fset: sharedFset, Files: files, Pkg: pkg, TypesInfo: info}
	err = analysis.Execute([]*analysis.Analyzer{a}, base, store,
		func(_ *analysis.Analyzer, d analysis.Diagnostic) { diags = append(diags, d) })
	if err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}

	wants := collectWants(t, files)
	// Match each diagnostic against an unconsumed want on its line.
	for _, d := range diags {
		posn := sharedFset.Position(d.Pos)
		key := lineKey{filepath.Base(posn.Filename), posn.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.rx.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", posn, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.rx)
			}
		}
	}
	return diags
}

type lineKey struct {
	file string
	line int
}

type want struct {
	rx   *regexp.Regexp
	used bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectWants parses // want comments into per-line expectations.
func collectWants(t *testing.T, files []*ast.File) map[lineKey][]*want {
	t.Helper()
	wants := map[lineKey][]*want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := sharedFset.Position(c.Pos())
				key := lineKey{filepath.Base(posn.Filename), posn.Line}
				for _, lit := range splitLiterals(m[1]) {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s: bad want literal %s: %v", posn, lit, err)
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", posn, pat, err)
					}
					wants[key] = append(wants[key], &want{rx: rx})
				}
			}
		}
	}
	return wants
}

// splitLiterals slices `"a" "b"`-style want payloads into individual Go
// string/backquote literals.
func splitLiterals(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			break
		}
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == quote && (quote == '`' || s[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			break
		}
		out = append(out, s[:end+1])
		s = strings.TrimSpace(s[end+1:])
	}
	if len(out) == 0 {
		// Tolerate a bare pattern with no quotes (not used by our
		// fixtures, but cheap insurance against typos).
		out = append(out, fmt.Sprintf("%q", s))
	}
	return out
}
