// Package analysis is a small, stdlib-only re-implementation of the core
// of golang.org/x/tools/go/analysis: the surface the workflowlint suite
// (internal/lint) and its driver (cmd/workflowlint) are written against.
// The build is hermetic, so x/tools cannot be imported; names follow
// upstream's, not its full API. The package covers analyzers,
// diagnostics, object/package Facts held in an in-memory store (see
// facts.go) so interprocedural results cross package boundaries,
// suggested fixes (textual edits attached to diagnostics, applied by the
// driver's -fix mode; see fix.go), and one function index per package
// (see index.go) that every analyzer on the package shares.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static check: a name, documentation, and a Run
// function applied once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, //lint:allow
	// suppression comments, and driver flags. By convention a single
	// lower-case word.
	Name string

	// Doc is the analyzer's documentation: first line is a one-sentence
	// summary, the rest elaborates.
	Doc string

	// Run applies the analyzer to a package. It may report diagnostics
	// via the Pass and may return an error, which aborts the analysis of
	// the package (reserved for internal failures, not findings).
	Run func(*Pass) error

	// FactTypes lists the fact types this analyzer exports or imports,
	// one zero value per type. An analyzer with a non-empty FactTypes is
	// run over dependency packages too (facts-only, diagnostics
	// suppressed) so its cross-package facts exist when dependents are
	// analyzed.
	FactTypes []Fact
}

// A Pass provides one analyzer with the parsed, type-checked view of a
// single package, and collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Funcs returns the package's function index (see index.go), built
	// the first time any analyzer on the package asks. Set by the driver.
	Funcs func() []*Func

	// Report delivers one diagnostic. Set by the driver.
	Report func(Diagnostic)

	// The fact API, mirroring upstream go/analysis. Bound by the driver
	// (FactStore.bind); nil-safe no-ops otherwise. ExportObjectFact
	// attaches a fact to an object declared in this pass's package;
	// ImportObjectFact copies a previously exported fact (possibly from a
	// dependency package analyzed earlier) into the pointer fact and
	// reports whether one was found.
	ExportObjectFact  func(obj types.Object, fact Fact)
	ImportObjectFact  func(obj types.Object, fact Fact) bool
	ExportPackageFact func(fact Fact)
	ImportPackageFact func(pkg *types.Package, fact Fact) bool
}

// A Diagnostic is a finding: a position and a message. End and
// SuggestedFixes are optional, mirroring the upstream struct.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos
	Message string

	// SuggestedFixes are candidate machine-applicable repairs for the
	// finding. A driver in -fix mode applies at most one fix per
	// diagnostic (the first) and skips fixes whose edits overlap an
	// already-applied fix.
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one self-contained repair: a message describing the
// change and the textual edits that perform it. Edits within one fix
// must not overlap each other.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces the source in [Pos, End) with NewText. A pure
// insertion has End == Pos (or End == token.NoPos).
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// NewTypesInfo returns a types.Info with every map the checkers consult
// allocated. Drivers (the CLI, analysistest) share it so passes always
// see fully populated type information.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
