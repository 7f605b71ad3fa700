package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/ssa"
	"repro/internal/lint/analysis/taint"
)

// DetTaint is the determinism analyzer: it enforces the
// bit-identical-restart contract — product bytes, decision logs, traces
// and cost reports must be a pure function of (inputs, seed) — over one
// table of nondeterminism sources (detSource: time.Now, global
// math/rand draws, map iteration order, goroutine/process identity),
// one sanitizer (time.Since: durations are telemetry) and one
// canonicalizer list (detInPlace: sort.*/slices.Sort*), all read off
// the SSA-lite def-use chains of ssaflow.
//
// Everywhere, interprocedurally: the values the sources produce are
// tracked along def-use chains and across function boundaries via
// taint summaries, and reported when one reaches a product write — an
// argument of a product write entry point (productWriteRoot, matched by
// package name so fixtures participate) — or a span timestamp in the
// obs package (BeginAt/EndAt/SpanAt), whose traces the determinism CI
// gate byte-compares across runs. Every such diagnostic carries a
// witness path — the variable and call hops the value took — so the fix
// site is visible without re-tracing by hand.
//
// Inside the deterministic packages (deterministicPkgs), non-test
// files only, three kernel rules make the source itself the finding,
// before it gets anywhere near a write:
//
//  1. no global math/rand draw (rand.Int, rand.Float64, …) — the
//     process-global RNG is shared across goroutines and unseeded;
//     constructors (rand.New, rand.NewSource, …) for explicitly seeded
//     *rand.Rand instances are not sources;
//  2. no time.Now whose value flows anywhere but duration telemetry —
//     its forward def-use closure (through rebindings and phis) may end
//     only in time.Since or Time.Sub; an injected clock is the
//     replacement (referencing time.Now as a function value is fine);
//  3. no map iteration whose order can reach output — a value derived
//     from the range reaching a stream write (fmt.Print*/Fprint*, a
//     Write/WriteString/WriteByte method), or an append to a slice
//     declared outside the loop that never reaches an in-place sort.
//
// Package-level variable initializers have no function body and so no
// def-use chains: the kernel rules do not see them.
//
// The paper's premise is that in-situ reductions replace raw dumps as
// the analysis record; a product whose bytes depend on wall-clock time,
// RNG state, or map order cannot be byte-compared across the re-run
// that gray-failure degradation (PR 6) or re-derivation repair (PR 7)
// triggers. Test files get findings suppressed (tests write scratch),
// but their summaries still feed the fixpoint.
var DetTaint = &analysis.Analyzer{
	Name:      "dettaint",
	Doc:       "forbid ambient entropy (global rand, wall clock, map order) in the deterministic packages and track it interprocedurally into product writes",
	Run:       runDetTaint,
	Requires:  []*analysis.Analyzer{SSAFlow},
	FactTypes: []analysis.Fact{(*DetTaintSummary)(nil)},
}

// DetTaintSummary carries one function's taint summary across package
// boundaries.
type DetTaintSummary struct {
	S taint.Summary
}

func (*DetTaintSummary) AFact() {}

func init() { analysis.RegisterFactType(&DetTaintSummary{}) }

// detSource classifies a register as a nondeterminism source.
func detSource(info *types.Info) func(v *ssa.Value) (string, bool) {
	return func(v *ssa.Value) (string, bool) {
		switch v.Op {
		case ssa.OpCall:
			fn := v.Callee
			if fn == nil {
				return "", false
			}
			if isPkgFunc(fn, "time", "Now") {
				return "time.Now", true
			}
			if isPkgFunc(fn, "runtime", "NumGoroutine") {
				return "runtime.NumGoroutine", true
			}
			if isPkgFunc(fn, "os", "Getpid") {
				return "os.Getpid", true
			}
			// Package-level math/rand draws read the shared global
			// source; methods on a seeded *rand.Rand are reproducible.
			if fn.Pkg() != nil && (fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") {
				sig, _ := fn.Type().(*types.Signature)
				if sig != nil && sig.Recv() == nil && fn.Exported() && !strings.HasPrefix(fn.Name(), "New") {
					return "math/rand." + fn.Name(), true
				}
			}
		case ssa.OpRange:
			if v.Expr == nil {
				return "", false
			}
			if tv, ok := info.Types[v.Expr]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					return "map iteration order", true
				}
			}
		}
		return "", false
	}
}

// detSinks lists the product-write operands of one instruction.
func detSinks(v *ssa.Value) []taint.SinkUse {
	if v.Op != ssa.OpCall || v.Callee == nil {
		return nil
	}
	fn := v.Callee
	if !productWriteRoot(fn) {
		return nil
	}
	var uses []taint.SinkUse
	for i, a := range v.Args {
		if v.RecvArg && i == 0 {
			continue // the receiver is the writer, not the written value
		}
		argNo := i + 1
		if v.RecvArg {
			argNo = i
		}
		uses = append(uses, taint.SinkUse{
			Arg:  a,
			Sink: fmt.Sprintf("%s.%s (arg %d)", fn.Pkg().Name(), fn.Name(), argNo),
		})
	}
	return uses
}

// detObsTimeArgs maps obs-package span methods to their timestamp
// parameter positions (receiver excluded). Span times must come from
// the injected DES clock; a wall-clock value here makes the trace
// non-reproducible across the re-runs the determinism CI gate compares.
// Passing time.Now *as the clock function* to New/SetClock is the
// sanctioned injection point and is not a sink — only sampled values
// flowing into timestamps are.
var detObsTimeArgs = map[string][]int{
	"BeginAt": {2},    // (cat, name, t)
	"EndAt":   {0},    // (t)
	"SpanAt":  {3, 4}, // (parent, cat, name, start, end)
}

// detObsSinks lists the span-timestamp operands of one instruction.
func detObsSinks(v *ssa.Value) []taint.SinkUse {
	if v.Op != ssa.OpCall || v.Callee == nil {
		return nil
	}
	fn := v.Callee
	if fn.Pkg() == nil || fn.Pkg().Name() != "obs" {
		return nil
	}
	params, ok := detObsTimeArgs[fn.Name()]
	if !ok {
		return nil
	}
	var uses []taint.SinkUse
	for _, p := range params {
		i := p
		if v.RecvArg {
			i = p + 1
		}
		if i >= len(v.Args) {
			continue
		}
		uses = append(uses, taint.SinkUse{
			Arg:  v.Args[i],
			Sink: fmt.Sprintf("obs.%s (time arg %d)", fn.Name(), p),
		})
	}
	return uses
}

// detSanitizer: calls whose results are clean regardless of arguments.
func detSanitizer(v *ssa.Value) bool {
	return v.Op == ssa.OpCall && v.Callee != nil && isPkgFunc(v.Callee, "time", "Since")
}

// detInPlace: sorting canonicalizes an order-tainted collection.
func detInPlace(v *ssa.Value) bool {
	if v.Op != ssa.OpCall || v.Callee == nil || v.Callee.Pkg() == nil {
		return false
	}
	switch v.Callee.Pkg().Path() {
	case "sort":
		switch v.Callee.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		return strings.HasPrefix(v.Callee.Name(), "Sort")
	}
	return false
}

func runDetTaint(pass *analysis.Pass) (any, error) {
	res := pass.ResultOf[SSAFlow].(*SSAResult)
	r := newReporter(pass)
	if isDeterministicPkg(pass.Pkg) {
		checkDetKernel(pass, r, res)
	}
	runTaint(pass, res,
		taint.Spec{
			Source:           detSource(pass.TypesInfo),
			Sinks:            func(v *ssa.Value) []taint.SinkUse { return append(detSinks(v), detObsSinks(v)...) },
			Sanitizer:        detSanitizer,
			InPlaceSanitizer: detInPlace,
		},
		func() (analysis.Fact, *taint.Summary) { f := &DetTaintSummary{}; return f, &f.S },
		func(pos token.Pos, f taint.Finding) {
			r.reportf(pos,
				"nondeterministic value from %s reaches %s (witness: %s); the product cannot be byte-compared across re-runs — derive it deterministically or canonicalize (sort) before writing",
				f.Source, f.Sink, strings.Join(f.Path, " → "))
		})
	return nil, nil
}

// --- kernel rules: inside a deterministic package the source itself is
// the finding ---

func checkDetKernel(pass *analysis.Pass, r *reporter, res *SSAResult) {
	source := detSource(pass.TypesInfo)
	// A memory-degraded variable is one cell per object, so indexing the
	// loads package-wide carries a store in a function to the loads in
	// the literals that capture the variable.
	loads := map[types.Object][]*ssa.Value{}
	for _, sf := range res.Order {
		for _, v := range sf.F.Values {
			if v.Op == ssa.OpVarLoad && v.Var != nil {
				loads[v.Var] = append(loads[v.Var], v)
			}
		}
	}
	for _, sf := range res.Order {
		for _, v := range sf.F.Values {
			label, ok := source(v)
			if !ok || isTestFile(pass.Fset, v.Pos) {
				continue
			}
			switch {
			case strings.HasPrefix(label, "math/rand."):
				r.reportf(v.Pos,
					"global math/rand call rand.%s is nondeterministic; draw from a seeded *rand.Rand threaded from the scenario/config",
					v.Callee.Name())
			case label == "time.Now":
				if wallClockEscapes(loads, v) {
					r.reportf(v.Pos,
						"time.Now in deterministic package %q may reach results; keep wall-clock reads to telemetry (time.Since) or inject the clock",
						pass.Pkg.Name())
				}
			case v.Op == ssa.OpRange:
				checkMapOrder(r, loads, v)
			}
		}
	}
}

// defUse walks the forward def-use closure of root. visit is called
// once for every instruction that consumes root or a register derived
// from it, and says whether the value flows on through that
// instruction's result (for a store to a memory-degraded variable:
// through the variable's loads).
func defUse(loads map[types.Object][]*ssa.Value, root *ssa.Value, visit func(u *ssa.Value) bool) {
	seen := map[*ssa.Value]bool{root: true}
	work := []*ssa.Value{root}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range v.Uses {
			if seen[u] {
				continue
			}
			seen[u] = true
			if !visit(u) {
				continue
			}
			if u.Op != ssa.OpVarStore {
				work = append(work, u)
				continue
			}
			for _, ld := range loads[u.Var] {
				if !seen[ld] {
					seen[ld] = true
					work = append(work, ld)
				}
			}
		}
	}
}

// detCarries reports whether a register derived from a source stays
// derived through u — the taint engine's transfer, as a predicate.
func detCarries(u *ssa.Value) bool {
	switch u.Op {
	case ssa.OpLen, ssa.OpMake, ssa.OpReturn, ssa.OpClosure, ssa.OpStore:
		return false
	}
	return !u.IsComparison() && !detSanitizer(u) && !detInPlace(u)
}

// wallClockEscapes reports whether a time.Now value, followed through
// rebindings and phis, is consumed by anything but duration telemetry.
func wallClockEscapes(loads map[types.Object][]*ssa.Value, now *ssa.Value) bool {
	escapes := false
	defUse(loads, now, func(u *ssa.Value) bool {
		switch {
		case u.Op == ssa.OpCopy, u.Op == ssa.OpPhi, u.Op == ssa.OpVarStore:
			return true
		case detSanitizer(u):
			return false
		case u.Op == ssa.OpCall && u.Callee != nil && u.Callee.Name() == "Sub" &&
			u.Callee.Pkg() != nil && u.Callee.Pkg().Path() == "time":
			return false
		}
		escapes = true
		return false
	})
	return escapes
}

// streamWrite names the stream-writing call u makes, or "".
func streamWrite(u *ssa.Value) string {
	if u.Op != ssa.OpCall || u.Callee == nil || u.Callee.Pkg() == nil {
		return ""
	}
	switch name := u.Callee.Name(); name {
	case "Fprintf", "Fprintln", "Fprint", "Printf", "Println", "Print":
		if u.Callee.Pkg().Path() == "fmt" {
			return "fmt." + name
		}
	case "Write", "WriteString", "WriteByte":
		if u.RecvArg {
			return name
		}
	}
	return ""
}

// checkMapOrder applies kernel rule 3 to one map range header: at most
// one diagnostic per range, at the range statement.
func checkMapOrder(r *reporter, loads map[types.Object][]*ssa.Value, rng *ssa.Value) {
	done := false
	defUse(loads, rng, func(u *ssa.Value) bool {
		if done {
			return false
		}
		if w := streamWrite(u); w != "" {
			done = true
			r.reportf(rng.Pos,
				"map iteration order reaches output: %s writes in nondeterministic order; sort the keys first", w)
			return false
		}
		if u.Op == ssa.OpAppend {
			// Never follow an append: a flagged one is reported here, and
			// a sorted one is canonical from there on.
			if name := unsortedOuterAppend(loads, u, rng.Pos); name != "" {
				done = true
				r.reportf(rng.Pos,
					"map iteration appends to %q in nondeterministic order; sort the keys first or sort %q before it is used", name, name)
			}
			return false
		}
		return detCarries(u)
	})
}

// unsortedOuterAppend names the variable declared before the loop (at
// loopPos) that an append inside it grows, when nothing the grown slice
// flows to sorts it in place; "" otherwise.
func unsortedOuterAppend(loads map[types.Object][]*ssa.Value, app *ssa.Value, loopPos token.Pos) string {
	name, sorted := "", false
	defUse(loads, app, func(u *ssa.Value) bool {
		if detInPlace(u) {
			sorted = true
			return false
		}
		if (u.Op == ssa.OpCopy || u.Op == ssa.OpVarStore) && name == "" && u.Var != nil && u.Var.Pos() < loopPos {
			name = u.Var.Name()
		}
		return detCarries(u)
	})
	if sorted {
		return ""
	}
	return name
}
