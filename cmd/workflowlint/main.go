// Command workflowlint is the multichecker for the repository's custom
// static analyzers (internal/lint), one per invariant: atomicwrite,
// closecheck, sentinelwrap, errflow, lockorder (the lock analyzer),
// dettaint (the determinism analyzer) — the workflow
// invariants behind bit-identical restarts, crash-consistent products,
// and the deadlock-free rank mesh, machine-checked. Several
// are interprocedural: they compute facts over the call graph that
// cross package boundaries (lockorder additionally publishes the
// package's lock-order edges as a package-level fact, so AB/BA
// inversions split across packages are caught; dettaint carries
// per-function taint summaries the same way). Run `workflowlint -list`
// for the full table.
//
// Usage:
//
//	workflowlint ./...    # load, check, report (the CI gate)
//
// The driver shells out to `go list -deps -export` for package metadata
// and export data, walks the packages dependency-first (the order
// `go list -deps` emits), and carries analyzer facts across packages in
// one in-memory store. It uses only the standard library: the
// environment is hermetic, so this driver and internal/lint/analysis
// stand in for golang.org/x/tools/go/analysis.
//
// With -sarif the diagnostics render as one SARIF 2.1.0 log on stdout —
// the interchange format code-scanning UIs and CI annotations ingest —
// with one rule per analyzer and one result per finding. Output order
// is deterministic in every mode: diagnostics sort by
// file, line, column, analyzer, message, so two runs over the same
// tree are byte-identical.
//
// With -fix, suggested fixes (sentinelwrap's %v→%w rewrite,
// closecheck's named-return close capture) are applied to the source
// in place; only diagnostics without a fix are then reported. With
// -fix -diff nothing is written: unified diffs go to stdout and the
// exit status says whether the tree is fix-clean. -diff without -fix is
// a usage error, so a drift check cannot silently degrade to a plain
// lint.
//
// Exit status: 0 clean, 1 internal error, 2 diagnostics reported (or,
// under -fix -diff, fixes pending).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	sarifOut := flag.Bool("sarif", false, "emit diagnostics as one SARIF 2.1.0 log on stdout")
	list := flag.Bool("list", false, "list the analyzers with one-line docs and exit")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source in place")
	diff := flag.Bool("diff", false, "with -fix, print diffs instead of writing files")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: workflowlint [-sarif] [-fix [-diff]] packages...\n   or: workflowlint -list\n\nAnalyzers:\n")
		for _, a := range sortedAnalyzers() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, firstLine(a.Doc))
		}
	}
	flag.Parse()

	if *list {
		for _, a := range sortedAnalyzers() {
			fmt.Printf("%-16s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}
	if *diff && !*fix {
		fmt.Fprintln(os.Stderr, "workflowlint: -diff requires -fix")
		os.Exit(1)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(run(args, *sarifOut, *fix, *diff))
}

// sortedAnalyzers returns the suite ordered by name — the order -list
// and usage print, independent of registration order.
func sortedAnalyzers() []*analysis.Analyzer {
	all := append([]*analysis.Analyzer(nil), lint.Analyzers()...)
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// diagnostic is one rendered finding.
type diagnostic struct {
	File      string
	Line, Col int
	Analyzer  string
	Message   string
	Fixable   bool
}

func (d diagnostic) posn() string {
	return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
}

// sortDiagnostics puts findings into the canonical reporting order:
// file, line, column, analyzer, message. Analyzer scheduling order and
// map iteration inside analyzers must not leak into the output — CI
// diffs two runs byte for byte.
func sortDiagnostics(diags []diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// report prints diagnostics and returns the exit status. SARIF mode
// emits one complete 2.1.0 log on stdout (empty results array included,
// so a clean run still uploads a valid report); the default renders
// human-readable lines on stderr. Both orders are canonical
// (sortDiagnostics).
func report(diags []diagnostic, sarifOut bool) int {
	sortDiagnostics(diags)
	if sarifOut {
		data, err := sarifReport(diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "workflowlint: %v\n", err)
			return 1
		}
		os.Stdout.Write(data)
		if len(diags) == 0 {
			return 0
		}
		return 2
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.posn(), d.Analyzer, d.Message)
	}
	return 2
}

// runFixes applies (or, with diff, previews) the suggested fixes in raw.
// It returns the number of files that would change. In diff mode
// unified diffs go to stdout and nothing is written; otherwise files
// are rewritten in place.
func runFixes(fset *token.FileSet, raw []analysis.Diagnostic, diff bool) (int, error) {
	fixed, err := analysis.ApplyFixes(fset, raw, os.ReadFile)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(fixed))
	for name := range fixed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if diff {
			old, err := os.ReadFile(name)
			if err != nil {
				return 0, err
			}
			fmt.Print(analysis.Diff(name, old, fixed[name]))
			continue
		}
		st, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		// Rewriting a source file in place is the entire point of -fix;
		// source files are not crash-committed data products.
		//lint:allow atomicwrite -fix rewrites source files, not data products
		if err := os.WriteFile(name, fixed[name], st.Mode().Perm()); err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "workflowlint: fixed %s\n", name)
	}
	return len(names), nil
}

// unfixable filters to the diagnostics that carry no suggested fix —
// after -fix has applied the rest, these are what remains for a human.
func unfixable(diags []diagnostic) []diagnostic {
	var out []diagnostic
	for _, d := range diags {
		if !d.Fixable {
			out = append(out, d)
		}
	}
	return out
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// loadedPkg is one package parsed and type-checked from source.
type loadedPkg struct {
	meta    listPkg
	files   []*ast.File
	pkg     *types.Package
	info    *types.Info
	depOnly bool
}

// loadPackages resolves patterns via `go list -deps -export` and
// type-checks every non-stdlib package from source, dependencies first
// (go list already emits them in dependency order). Stdlib packages
// contribute export data only: no workflowlint fact roots live there,
// so they are never analyzed.
func loadPackages(patterns []string) (*token.FileSet, []*loadedPkg, error) {
	argv := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", argv...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %w", err)
	}
	exportOf := map[string]string{}
	var metas []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("parsing go list output: %w", err)
		}
		if p.Export != "" {
			exportOf[p.ImportPath] = p.Export
		}
		if !p.Standard {
			metas = append(metas, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exportOf[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var loaded []*loadedPkg
	for _, p := range metas {
		var files []*ast.File
		var parseErr error
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				parseErr = err
				break
			}
			files = append(files, f)
		}
		if parseErr != nil {
			return nil, nil, parseErr
		}
		if len(files) == 0 {
			continue
		}
		info := analysis.NewTypesInfo()
		conf := types.Config{Importer: imp, Error: func(error) {}}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
		loaded = append(loaded, &loadedPkg{meta: p, files: files, pkg: pkg, info: info, depOnly: p.DepOnly})
	}
	return fset, loaded, nil
}

// analyzePackages runs the suite over loaded packages with one shared
// fact store: dependency-only packages get the fact-producing analyzers
// (their diagnostics are their owners' business when listed as
// targets), targets get the full suite. The raw analysis.Diagnostic
// slice rides along so -fix can reach the suggested edits.
func analyzePackages(fset *token.FileSet, loaded []*loadedPkg, store *analysis.FactStore) ([]diagnostic, []analysis.Diagnostic, error) {
	all := lint.Analyzers()
	factOnly := analysis.FactProducers(all)
	var diags []diagnostic
	var raw []analysis.Diagnostic
	collect := func(a *analysis.Analyzer, d analysis.Diagnostic) {
		posn := fset.Position(d.Pos)
		diags = append(diags, diagnostic{
			File:     posn.Filename,
			Line:     posn.Line,
			Col:      posn.Column,
			Analyzer: a.Name,
			Message:  d.Message,
			Fixable:  len(d.SuggestedFixes) > 0,
		})
		raw = append(raw, d)
	}
	for _, lp := range loaded {
		analyzers, sink := all, collect
		if lp.depOnly {
			analyzers, sink = factOnly, nil
		}
		base := &analysis.Pass{Fset: fset, Files: lp.files, Pkg: lp.pkg, TypesInfo: lp.info}
		if err := analysis.Execute(analyzers, base, store, sink); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", lp.meta.ImportPath, err)
		}
	}
	return diags, raw, nil
}

// run lints the packages matching patterns and returns the exit status.
// Under -fix the suggested fixes are applied (or, with diff, previewed)
// and only the diagnostics no fix covers are reported; -diff with fixes
// pending exits 2.
func run(patterns []string, sarifOut, fix, diff bool) int {
	fset, loaded, err := loadPackages(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "workflowlint: %v\n", err)
		return 1
	}
	diags, raw, err := analyzePackages(fset, loaded, analysis.NewFactStore())
	if err != nil {
		fmt.Fprintf(os.Stderr, "workflowlint: %v\n", err)
		return 1
	}
	if fix {
		changed, err := runFixes(fset, raw, diff)
		if err != nil {
			fmt.Fprintf(os.Stderr, "workflowlint: %v\n", err)
			return 1
		}
		if diff && changed > 0 {
			return 2
		}
		diags = unfixable(diags)
	}
	return report(diags, sarifOut)
}
