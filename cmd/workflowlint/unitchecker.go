package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// vetConfig mirrors the JSON cmd/go writes for a vet tool invocation
// (cmd/go/internal/work.vetConfig). Fields the checker does not consult
// are still listed so the contract is visible in one place.
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoVersion    string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool
	PackageVetx   map[string]string
	VetxOnly      bool
	VetxOutput    string

	SucceedOnTypecheckFailure bool
}

// runUnitchecker analyzes the single package described by a vet.cfg
// file, per cmd/go's unit-checker protocol: diagnostics go to stderr
// (or stdout as JSON) and exit status 2 marks findings. Facts imported
// from the PackageVetx files of direct dependencies are merged into one
// store; after analysis the store is gob-serialized to VetxOutput, so
// cross-package facts ride cmd/go's action cache — a cached dependency
// never re-runs, its vetx is simply replayed to dependents.
//
// VetxOnly packages (loaded solely so dependents can import their
// facts) still get parsed, type-checked, and run through the
// fact-producing analyzers, but report no diagnostics. Standard-library
// packages are the exception: none of the suite's fact roots (mpi
// collectives, fs/gio/ckpt/catalog write entry points) can live there,
// so an empty vetx is the complete answer and the parse is skipped.
//
// With fix set, this unit's suggested fixes are applied to (or, with
// diff, previewed against) the package's own source files, so
// `go vet -vettool=workflowlint -fix` carries the fix pipeline too.
//
// SARIF under vet is per-unit: a unit with findings emits its own
// complete log; a clean unit stays silent (unlike the standalone
// driver's single whole-run log) so `go vet` over many packages does
// not drown stdout in empty reports.
func runUnitchecker(cfgPath string, jsonOut, sarifOut, fix, diff bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "workflowlint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "workflowlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	store := analysis.NewFactStore()
	if cfg.VetxOnly && cfg.Standard[cfg.ImportPath] {
		if err := writeVetx(cfg.VetxOutput, store); err != nil {
			fmt.Fprintf(os.Stderr, "workflowlint: %v\n", err)
			return 1
		}
		return 0
	}
	for path, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "workflowlint: reading facts of %s: %v\n", path, err)
			return 1
		}
		if err := store.Decode(data); err != nil {
			fmt.Fprintf(os.Stderr, "workflowlint: decoding facts of %s: %v\n", path, err)
			return 1
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "workflowlint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		if err := writeVetx(cfg.VetxOutput, store); err != nil {
			fmt.Fprintf(os.Stderr, "workflowlint: %v\n", err)
			return 1
		}
		return 0
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := analysis.NewTypesInfo()
	conf := types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Error:     func(error) {},
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "workflowlint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	analyzers := lint.Analyzers()
	if cfg.VetxOnly {
		analyzers = analysis.FactProducers(analyzers)
	}
	diags, raw, err := runPackage(analyzers, fset, files, pkg, info, store)
	if err != nil {
		fmt.Fprintf(os.Stderr, "workflowlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if err := writeVetx(cfg.VetxOutput, store); err != nil {
		fmt.Fprintf(os.Stderr, "workflowlint: %v\n", err)
		return 1
	}
	if cfg.VetxOnly {
		return 0
	}
	if fix {
		var code int
		if diags, code = fixStage(fset, diags, raw, diff); code != 0 {
			return code
		}
	}
	if sarifOut && len(diags) == 0 {
		return 0
	}
	return report(diags, jsonOut, sarifOut)
}

// writeVetx lands the serialized fact store at VetxOutput. The encoding
// is deterministic (facts sorted by package, object, type), which
// matters: the vetx content participates in cmd/go's action-cache
// hashing, so a nondeterministic byte stream would spuriously
// invalidate dependent vet actions.
func writeVetx(path string, store *analysis.FactStore) error {
	if path == "" {
		return nil
	}
	data, err := store.Encode()
	if err != nil {
		return fmt.Errorf("encoding facts: %w", err)
	}
	// The vetx file is cmd/go's private action-cache artifact, validated
	// by its own content hash — not a workflow product needing the
	// temp-and-rename commit.
	//lint:allow atomicwrite vetx is cmd/go cache metadata, not a data product
	return os.WriteFile(path, data, 0o666)
}
