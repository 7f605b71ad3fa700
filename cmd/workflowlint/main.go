// Command workflowlint is the multichecker for the repository's custom
// static analyzers (internal/lint), one per invariant: atomicwrite,
// closecheck, sentinelwrap, mpicollective, goroutineleak, errflow,
// lockorder (the lock analyzer), dettaint (the determinism analyzer),
// allocbound, sharecapture — the workflow invariants behind
// bit-identical restarts, crash-consistent products, and the
// deadlock-free rank mesh, machine-checked. Several are
// interprocedural: they compute facts over the call graph that cross
// package boundaries (lockorder additionally publishes the package's
// lock-order edges as a package-level fact, so AB/BA inversions split
// across packages are caught; dettaint and allocbound carry
// per-function taint summaries the same way). Run `workflowlint -list`
// for the full table.
//
// Two modes:
//
//	workflowlint ./...              # standalone: load, check, report (CI gate)
//	go vet -vettool=workflowlint pkgs   # vet tool protocol
//
// The standalone mode shells out to `go list -deps -export` for package
// facts and export data, walks the packages dependency-first (the order
// `go list -deps` emits), and carries analyzer facts across packages in
// memory; the vet mode implements cmd/go's unit-checker protocol
// (-V=full, -flags, a JSON *.cfg argument) and serializes the fact store
// into the VetxOutput file, so cross-package facts survive go vet's
// action cache. The standalone mode is the fast one (the tree is loaded
// once; cmd/go re-executes every named package under vet). Both use
// only the standard library: the environment is hermetic, so this
// driver and internal/lint/analysis stand in for
// golang.org/x/tools/go/analysis.
//
// With -json each diagnostic is one JSON object per line (file, line,
// col, analyzer, message, fixable) — the shape CI annotation tooling
// consumes. With -sarif the diagnostics render instead as one SARIF
// 2.1.0 log on stdout — the interchange format code-scanning UIs
// ingest — with one rule per analyzer and one result per finding.
// Output order is deterministic in every mode: diagnostics sort by
// file, line, column, analyzer, message, so two runs over the same
// tree are byte-identical.
//
// With -fix, suggested fixes (sentinelwrap's %v→%w rewrite,
// closecheck's named-return close capture) are applied to the source
// in place; only diagnostics without a fix are then reported. With
// -fix -diff nothing is written: unified diffs go to stdout and the
// exit status says whether the tree is fix-clean — the CI drift gate
// is `workflowlint -fix -diff ./...` exiting 0.
//
// Exit status: 0 clean, 1 internal error, 2 diagnostics reported (or,
// under -fix -diff, fixes pending).
package main

import (
	"bytes"
	"crypto/sha256"
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
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	// The vet tool protocol probes -V=full before anything else; answer
	// it ahead of normal flag parsing.
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" || arg == "--V=full" || arg == "-V" || arg == "--V" {
			printVersion()
			return
		}
	}

	flagsJSON := flag.Bool("flags", false, "print analyzer flags as JSON (vet tool protocol)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON, one object per line")
	sarifOut := flag.Bool("sarif", false, "emit diagnostics as one SARIF 2.1.0 log on stdout")
	list := flag.Bool("list", false, "list the analyzers with one-line docs and exit")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source in place")
	diff := flag.Bool("diff", false, "with -fix, print diffs instead of writing files")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: workflowlint [-json|-sarif] [-fix [-diff]] packages...\n   or: workflowlint -list\n   or: go vet -vettool=$(command -v workflowlint) packages...\n\nAnalyzers:\n")
		for _, a := range sortedAnalyzers() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, firstLine(a.Doc))
		}
	}
	flag.Parse()

	if *flagsJSON {
		// cmd/go queries the tool's flags and forwards matching command
		// line arguments; declaring fix/diff/sarif here is what lets
		// `go vet -vettool=... -fix` (or -sarif) carry those modes
		// through the vet protocol.
		fmt.Println(`[` +
			`{"Name":"json","Bool":true,"Usage":"emit diagnostics as JSON, one object per line"},` +
			`{"Name":"sarif","Bool":true,"Usage":"emit diagnostics as one SARIF 2.1.0 log on stdout"},` +
			`{"Name":"fix","Bool":true,"Usage":"apply suggested fixes to the source in place"},` +
			`{"Name":"diff","Bool":true,"Usage":"with -fix, print diffs instead of writing files"}]`)
		return
	}
	if *list {
		for _, a := range sortedAnalyzers() {
			fmt.Printf("%-16s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "workflowlint: -json and -sarif are mutually exclusive")
		os.Exit(1)
	}

	tuneGC()
	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnitchecker(args[0], *jsonOut, *sarifOut, *fix, *diff))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(runStandalone(args, *jsonOut, *sarifOut, *fix, *diff))
}

// tuneGC relaxes the collector for the standalone driver. A whole-repo
// pass retains every package's AST and type information for its
// lifetime, so at the default GOGC=100 each collection re-scans that
// large live heap for little reclaim — roughly a third of the wall
// time on this repository. The process is a one-shot batch job, so
// trading peak RSS for throughput is the right default (the same
// tuning linkers and other one-shot Go tools apply). An explicit GOGC
// in the environment wins.
func tuneGC() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(300)
	}
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

// printVersion answers cmd/go's toolID probe. The content hash of the
// binary itself is the build ID, so editing an analyzer and rebuilding
// invalidates go vet's action cache.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			id = fmt.Sprintf("%x", sha256.Sum256(data))[:24]
		}
	}
	fmt.Printf("workflowlint version devel buildID=%s\n", id)
}

// diagnostic is one rendered finding, shared by both modes.
type diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable"`
}

func (d diagnostic) posn() string {
	return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
}

// runPackage applies the given analyzers (plus Requires) to one loaded
// package, threading facts through store. The raw analysis.Diagnostic
// slice rides along so -fix can reach the suggested edits.
func runPackage(analyzers []*analysis.Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, store *analysis.FactStore) ([]diagnostic, []analysis.Diagnostic, error) {
	var out []diagnostic
	var raw []analysis.Diagnostic
	base := &analysis.Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	err := analysis.Execute(analyzers, base, store, func(a *analysis.Analyzer, d analysis.Diagnostic) {
		posn := fset.Position(d.Pos)
		out = append(out, diagnostic{
			File:     posn.Filename,
			Line:     posn.Line,
			Col:      posn.Column,
			Analyzer: a.Name,
			Message:  d.Message,
			Fixable:  len(d.SuggestedFixes) > 0,
		})
		raw = append(raw, d)
	})
	return out, raw, err
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

// report prints diagnostics and returns the exit status. JSON mode emits
// one object per line on stdout (NDJSON, the CI-annotation contract);
// SARIF mode emits one complete 2.1.0 log on stdout (empty results
// array included, so a clean run still uploads a valid report); the
// default renders human-readable lines on stderr. All orders are
// canonical (sortDiagnostics).
func report(diags []diagnostic, jsonOut, sarifOut bool) int {
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
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			if err := enc.Encode(d); err != nil {
				fmt.Fprintf(os.Stderr, "workflowlint: %v\n", err)
				return 1
			}
		}
		return 2
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

// --- standalone mode ---

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
// targets), targets get the full suite.
func analyzePackages(fset *token.FileSet, loaded []*loadedPkg, store *analysis.FactStore) ([]diagnostic, []analysis.Diagnostic, error) {
	all := lint.Analyzers()
	factOnly := analysis.FactProducers(all)
	var diags []diagnostic
	var raw []analysis.Diagnostic
	for _, lp := range loaded {
		analyzers := all
		if lp.depOnly {
			analyzers = factOnly
		}
		ds, rs, err := runPackage(analyzers, fset, lp.files, lp.pkg, lp.info, store)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", lp.meta.ImportPath, err)
		}
		if !lp.depOnly {
			diags = append(diags, ds...)
			raw = append(raw, rs...)
		}
	}
	return diags, raw, nil
}

func runStandalone(patterns []string, jsonOut, sarifOut, fix, diff bool) int {
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
		var code int
		if diags, code = fixStage(fset, diags, raw, diff); code != 0 {
			return code
		}
	}
	return report(diags, jsonOut, sarifOut)
}

// fixStage is the -fix step both driver modes share: apply (or, with
// diff, preview) the suggested fixes and keep the diagnostics no fix
// covers. A non-zero code is the run's verdict: 1 on failure, 2 when
// -diff finds fixes pending.
func fixStage(fset *token.FileSet, diags []diagnostic, raw []analysis.Diagnostic, diff bool) ([]diagnostic, int) {
	changed, err := runFixes(fset, raw, diff)
	if err != nil {
		fmt.Fprintf(os.Stderr, "workflowlint: %v\n", err)
		return nil, 1
	}
	if diff && changed > 0 {
		return nil, 2
	}
	return unfixable(diags), 0
}
