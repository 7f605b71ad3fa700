package lint

import (
	"go/types"
	"strings"
)

// This file is the one place the suite decides *where* a rule applies.
// Every table is matched by package name (not import path) so fixture
// packages participate. DESIGN.md §10's scope column restates these
// tables; TestDesignRoster holds the two together.

// deterministicPkgs names the packages whose outputs must be a pure
// function of (inputs, seed): the simulation and analysis kernels, the
// persistence layer, and the modelled campaign — everything whose
// output is a product, a decision log, a trace or a cost report that CI
// byte-compares across runs. TestDeterministicCoversCore holds the
// table to internal/core's import closure.
var deterministicPkgs = map[string]bool{
	// simulation and analysis kernels
	"nbody": true, "ic": true, "halo": true, "center": true,
	"subhalo": true, "so": true, "powerspec": true, "cosmotools": true,
	"fft": true, "grid": true, "kdtree": true, "bhtree": true,
	"profile": true, "tracking": true, "cosmo": true, "stats": true,
	"periodic": true,
	// persistence
	"gio": true, "ckpt": true, "integrity": true, "catalog": true,
	// the modelled campaign: engine, scheduler, storage, faults,
	// supervision, observability
	"core": true, "des": true, "sched": true, "fs": true, "fault": true,
	"supervise": true, "obs": true, "platform": true,
}

// deterministicExempt names the packages internal/core imports that are
// deliberately outside deterministicPkgs: they run real goroutines, so
// their scheduling is nondeterministic by construction and their
// callers impose the order (fixed-rank reductions, index-filled result
// slots).
var deterministicExempt = map[string]bool{
	"transit": true, "mpi": true, "dparallel": true,
}

func isDeterministicPkg(pkg *types.Package) bool {
	return pkg != nil && deterministicPkgs[pkg.Name()]
}

// rankExchangePkgs are the concurrency layers: the packages whose
// goroutines exchange data over channels, where a channel operation
// under a lock stalls every peer that next contends the lock
// (lockorder) and an unjoined goroutine outlives a bug silently
// (goroutineleak).
var rankExchangePkgs = map[string]bool{
	"mpi": true, "transit": true, "sched": true, "dparallel": true,
	"supervise": true,
}

// productWritePkgs are the packages whose exported write entry points
// commit workflow products; productWritePrefixes name those entry
// points. dettaint's sinks are their arguments, errflow's roots are
// their error results.
var productWritePkgs = map[string]bool{
	"gio": true, "catalog": true, "ckpt": true, "fs": true,
}

var productWritePrefixes = []string{"Write", "Commit", "Append", "Save", "Put", "Merge"}

// productWriteRoot reports whether fn is a product write entry point.
func productWriteRoot(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || !productWritePkgs[fn.Pkg().Name()] || !fn.Exported() {
		return false
	}
	for _, p := range productWritePrefixes {
		if strings.HasPrefix(fn.Name(), p) {
			return true
		}
	}
	return false
}

// directWritePkgs are the packages (and the command mains) that land
// data products on disk and must therefore go through internal/ckpt's
// atomic helpers instead of os.Create/WriteFile (atomicwrite rule 2).
// ckpt itself, the helper layer, is deliberately absent.
var directWritePkgs = map[string]bool{
	"gio": true, "catalog": true, "core": true, "cosmotools": true,
	"main": true,
}
