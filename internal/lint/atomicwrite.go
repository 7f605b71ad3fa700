package lint

import (
	"go/ast"
	"go/token"

	"repro/internal/lint/analysis"
)

// AtomicWrite enforces the crash-consistency protocol from DESIGN.md §9:
// data products are published with write-temp → fsync → rename, and
// everything above the ckpt layer goes through its helpers rather than
// hand-rolling file writes. Two rules, non-test files only:
//
//  1. everywhere: an os.Rename call must be preceded (in the same
//     function) by a Sync call — renaming an unflushed file publishes
//     bytes the kernel may not have; a crash then leaves a torn or empty
//     "committed" product;
//  2. in product-producing packages (gio, catalog, core, cosmotools and
//     the command mains): direct os.Create / os.WriteFile /
//     os.CreateTemp / writable os.OpenFile calls are flagged — product
//     files must be committed via internal/ckpt (WriteFileAtomic or
//     Journal.Commit) so a crash can never tear them. Package ckpt
//     itself (the helper layer) is exempt, as are reads (os.Open).
var AtomicWrite = &analysis.Analyzer{
	Name: "atomicwrite",
	Doc:  "require fsync-before-rename and route product writes through internal/ckpt's atomic helpers",
	Run:  runAtomicWrite,
}

// writeOpenFlags are the os.OpenFile flag names that make a handle
// writable.
var writeOpenFlags = map[string]bool{
	"O_WRONLY": true, "O_RDWR": true, "O_APPEND": true,
	"O_CREATE": true, "O_TRUNC": true,
}

func runAtomicWrite(pass *analysis.Pass) error {
	r := newReporter(pass)
	for _, fc := range pass.Funcs() {
		if !isTestFile(pass.Fset, fc.Body.Pos()) {
			checkRenameSync(pass, r, fc.Body)
		}
	}
	if !directWritePkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			switch {
			case isPkgFunc(fn, "os", "Create"), isPkgFunc(fn, "os", "WriteFile"),
				isPkgFunc(fn, "os", "CreateTemp"):
				r.reportf(call.Pos(),
					"os.%s bypasses internal/ckpt's atomic commit: write data products with ckpt.WriteFileAtomic or Journal.Commit so a crash cannot tear the file",
					fn.Name())
			case isPkgFunc(fn, "os", "OpenFile"):
				if openFileWritable(call) {
					r.reportf(call.Pos(),
						"writable os.OpenFile bypasses internal/ckpt's atomic commit: write data products with ckpt.WriteFileAtomic or Journal.Commit")
				}
			}
			return true
		})
	}
	return nil
}

// openFileWritable reports whether an os.OpenFile call's flag argument
// mentions a write-mode flag.
func openFileWritable(call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	writable := false
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if writeOpenFlags[e.Sel.Name] {
				writable = true
			}
		case *ast.Ident:
			if writeOpenFlags[e.Name] {
				writable = true
			}
		}
		return !writable
	})
	return writable
}

// checkRenameSync flags os.Rename calls with no Sync call earlier in the
// same function body (nested literals are bodies of their own). Sync
// may be an interface method: any Sync call counts.
func checkRenameSync(pass *analysis.Pass, r *reporter, body *ast.BlockStmt) {
	var syncs []token.Pos
	var renames []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			switch fn := analysis.Callee(pass.TypesInfo, call); {
			case fn == nil:
			case fn.Name() == "Sync":
				syncs = append(syncs, call.Pos())
			case isPkgFunc(fn, "os", "Rename"):
				renames = append(renames, call)
			}
		}
		return true
	})
	for _, rename := range renames {
		synced := false
		for _, s := range syncs {
			if s < rename.Pos() {
				synced = true
				break
			}
		}
		if !synced {
			r.reportf(rename.Pos(),
				"os.Rename without a preceding File.Sync in this function: a crash can publish unflushed bytes; fsync the temp file first (see ckpt.WriteFileAtomic)")
		}
	}
}
