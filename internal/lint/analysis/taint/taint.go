// Package taint is a generic interprocedural taint engine over the
// SSA-lite IR of package ssa. An analyzer instantiates it with a Spec —
// which registers originate taint (sources), which instruction operands
// must never receive it (sinks), and which calls launder it
// (sanitizers) — and the engine computes, per function, where taint
// flows along def-use chains, through phis, stores, and call sites.
//
// Call sites are resolved through per-function Summaries: compact
// descriptions of how taint crosses one function
// boundary (param-to-result pass-through, results carrying internal
// source taint, params reaching internal sinks). Within a package the
// engine iterates to a fixpoint over all function bodies; across
// packages, summaries travel as analysis Facts — the External hook
// looks them up for imported callees. Witness paths are k-bounded
// (MaxPath hops, "…" marks truncation) so summaries stay small and the
// fixpoint terminates even on recursive call chains.
//
// The engine is deliberately conservative where the IR is: calls with
// no summary pass taint from every argument to their results,
// address-taken variables are flow-insensitive, and value flow never
// crosses a closure boundary.
package taint

import (
	"go/types"
	"sort"

	"repro/internal/lint/analysis/ssa"
)

// An Elem is one unit of taint on a register: either "derives from
// source <Source>" (Param < 0) or "derives from parameter Param" (the
// element summaries are built from).
type Elem struct {
	// Source labels the originating source ("time.Now", "map iteration
	// order"). Empty for parameter elements.
	Source string
	// Param is the originating parameter index (receiver first for
	// methods), or -1 for source elements.
	Param int
	// Path is the k-bounded witness: one hop per variable rebinding or
	// call boundary the taint crossed, "…" if truncated.
	Path []string
}

// elemKey is the identity of an element — everything but the witness
// path. A comparable struct (not a formatted string) because it is the
// map key on every register of every function: the propagation inner
// loops hash it constantly.
type elemKey struct {
	source string
	param  int
}

func (e Elem) key() elemKey {
	return elemKey{e.Source, e.Param}
}

// A SinkUse names one operand of a sink instruction. Spec.Sinks returns
// one per (operand, description) pair.
type SinkUse struct {
	// Arg is the operand register that must not be tainted.
	Arg *ssa.Value
	// Sink describes the sink for diagnostics ("gio.WriteState arg 2",
	// "make size").
	Sink string
}

// A Spec instantiates the engine for one analyzer. All hooks may be
// nil.
type Spec struct {
	// Source classifies a register as originating taint, returning its
	// label. Called once per register before propagation.
	Source func(v *ssa.Value) (label string, ok bool)
	// Sinks lists the sink operands of one instruction. Evaluated after
	// the fixpoint: a tainted operand is a finding (source taint) or a
	// summary entry (parameter taint).
	Sinks func(v *ssa.Value) []SinkUse
	// Sanitizer reports a call whose results are clean regardless of
	// arguments (time.Since, strconv.Quote, ...).
	Sanitizer func(v *ssa.Value) bool
	// InPlaceSanitizer reports a call that cleanses its argument
	// registers in place (sort.Slice canonicalizes an order-tainted
	// slice). Sanitized registers neither receive nor propagate taint.
	InPlaceSanitizer func(v *ssa.Value) bool
}

// A Summary is the boundary behavior of one function — the unit carried
// across packages as an analysis Fact. All fields are sorted, so a
// summary does not depend on map iteration order.
type Summary struct {
	// Flows are param-to-result pass-throughs.
	Flows []ParamFlow
	// Results are results carrying taint from a source inside the
	// function (or its callees).
	Results []ResultTaint
	// Sinks are parameters that reach a sink inside the function (or
	// its callees).
	Sinks []ParamSink
}

// ParamFlow records that taint on parameter Param flows to result
// Result.
type ParamFlow struct {
	Param, Result int
	Path          []string
}

// ResultTaint records that result Result carries taint from Source.
type ResultTaint struct {
	Result int
	Source string
	Path   []string
}

// ParamSink records that parameter Param reaches sink Sink.
type ParamSink struct {
	Param int
	Sink  string
	Path  []string
}

// Empty reports whether the summary says nothing.
func (s *Summary) Empty() bool {
	return s == nil || len(s.Flows) == 0 && len(s.Results) == 0 && len(s.Sinks) == 0
}

// A Finding is one source-reaches-sink violation.
type Finding struct {
	// Pos is the sink position (the call site, for sinks inside
	// callees).
	Pos    int // token.Pos widened; kept as int for painless sorting
	Sink   string
	Source string
	Path   []string
}

// A FuncInfo pairs one lowered body with its declared object (nil for
// function literals, which get findings but no summary).
type FuncInfo struct {
	Fn  *types.Func
	SSA *ssa.Func
}

// A Result is the package-level outcome.
type Result struct {
	// Summaries holds the stabilized summary of every declared function.
	Summaries map[*types.Func]*Summary
	// Findings are source-reaches-sink violations, sorted by position.
	Findings []Finding
}

// An Engine runs one Spec over package function bodies.
type Engine struct {
	Spec Spec
	// MaxPath bounds witness paths and call-context composition
	// (default 8 hops).
	MaxPath int
	// External resolves summaries for callees outside the analyzed
	// set — typically via Pass.ImportObjectFact. May be nil.
	External func(fn *types.Func) (*Summary, bool)
}

func (e *Engine) maxPath() int {
	if e.MaxPath > 0 {
		return e.MaxPath
	}
	return 8
}

// maxIters bounds the package-level fixpoint; summaries grow
// monotonically so convergence is fast, but recursion plus path churn
// must not spin forever.
const maxIters = 12

// AnalyzePackage computes summaries and findings for a set of function
// bodies, iterating until summaries stabilize so intra-package call
// chains resolve in any declaration order. The fixpoint is driven by
// the intra-package caller graph: a function re-analyzes only when a
// callee's summary materializes or changes, so the common function —
// calling nothing whose summary moved — is analyzed exactly once
// rather than once per whole-package round.
func (e *Engine) AnalyzePackage(fns []FuncInfo) *Result {
	summaries := map[*types.Func]*Summary{}

	// callersOf[g] lists the fns indexes that contain a call to g.
	callersOf := map[*types.Func][]int{}
	for i, fi := range fns {
		if fi.SSA == nil {
			continue
		}
		seen := map[*types.Func]bool{}
		for _, v := range fi.SSA.Values {
			if v.Op == ssa.OpCall && v.Callee != nil && !seen[v.Callee] {
				seen[v.Callee] = true
				callersOf[v.Callee] = append(callersOf[v.Callee], i)
			}
		}
	}

	findingsPer := make([][]Finding, len(fns))
	rounds := make([]int, len(fns)) // re-analysis cap per function
	queued := make([]bool, len(fns))
	var queue []int
	for i := range fns {
		if fns[i].SSA != nil {
			queue = append(queue, i)
			queued[i] = true
		}
	}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		queued[i] = false
		if rounds[i] >= maxIters {
			continue
		}
		rounds[i]++
		fi := fns[i]
		sum, fs := e.analyzeFunc(fi, summaries)
		findingsPer[i] = fs
		if fi.Fn == nil {
			continue
		}
		prev, existed := summaries[fi.Fn]
		summaries[fi.Fn] = sum
		if existed && sameSummary(prev, sum) {
			continue
		}
		// First materialization or structural change: callers saw the
		// conservative (or stale) transfer and must recompute.
		for _, c := range callersOf[fi.Fn] {
			if !queued[c] {
				queued[c] = true
				queue = append(queue, c)
			}
		}
	}

	var findings []Finding
	for _, fs := range findingsPer {
		findings = append(findings, fs...)
	}
	return &Result{Summaries: summaries, Findings: dedupFindings(findings)}
}

func dedupFindings(fs []Finding) []Finding {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		if a.Sink != b.Sink {
			return a.Sink < b.Sink
		}
		return a.Source < b.Source
	})
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f.Pos == fs[i-1].Pos && f.Sink == fs[i-1].Sink && f.Source == fs[i-1].Source {
			continue
		}
		out = append(out, f)
	}
	return out
}

// sameSummary compares two summaries structurally, ignoring witness
// paths (paths may keep reshaping under recursion; the flow facts are
// what must stabilize).
func sameSummary(a, b *Summary) bool {
	if a == nil || b == nil {
		return a.Empty() && b.Empty()
	}
	if len(a.Flows) != len(b.Flows) || len(a.Results) != len(b.Results) || len(a.Sinks) != len(b.Sinks) {
		return false
	}
	for i := range a.Flows {
		if a.Flows[i].Param != b.Flows[i].Param || a.Flows[i].Result != b.Flows[i].Result {
			return false
		}
	}
	for i := range a.Results {
		if a.Results[i].Result != b.Results[i].Result || a.Results[i].Source != b.Results[i].Source {
			return false
		}
	}
	for i := range a.Sinks {
		if a.Sinks[i].Param != b.Sinks[i].Param || a.Sinks[i].Sink != b.Sinks[i].Sink {
			return false
		}
	}
	return true
}

// state is the per-function propagation state. Register state is
// indexed by the dense Value.ID and element sets are small slices with
// linear-scan insertion: almost every tainted register carries one or
// two elements, so hashing and per-register map headers cost more than
// the scan they avoid — this layout is what keeps the whole-repo pass
// inside its benchmark budget.
type state struct {
	e         *Engine
	f         *ssa.Func
	summaries map[*types.Func]*Summary

	elems    [][]Elem // by Value.ID
	varElems map[types.Object][]Elem
	varLoads map[types.Object][]*ssa.Value

	sanitizedReg []bool // by Value.ID
	sanitizedVar map[types.Object]bool

	work   []*ssa.Value
	inWork []bool // by Value.ID

	// scratch backs the transient element sets built by unionArgs and
	// applyCall; merge copies out of them immediately, so one buffer
	// (reused across every transfer in the function) is safe and spares
	// an allocation per instruction visit.
	scratch []Elem
}

// hasElem reports whether set already carries an element with el's
// identity (source, param) — witness paths do not participate.
func hasElem(set []Elem, k elemKey) bool {
	for _, have := range set {
		if have.key() == k {
			return true
		}
	}
	return false
}

func (e *Engine) analyzeFunc(fi FuncInfo, summaries map[*types.Func]*Summary) (*Summary, []Finding) {
	n := len(fi.SSA.Values)
	st := &state{
		e: e, f: fi.SSA, summaries: summaries,
		elems:        make([][]Elem, n),
		varElems:     map[types.Object][]Elem{},
		varLoads:     map[types.Object][]*ssa.Value{},
		sanitizedReg: make([]bool, n),
		sanitizedVar: map[types.Object]bool{},
		inWork:       make([]bool, n),
	}
	st.preScan()
	st.seed()
	st.propagate()
	return st.harvest(fi)
}

// preScan indexes var loads and computes the sanitized sets: registers
// (and memory variables) that an in-place sanitizer touches never carry
// taint.
func (st *state) preScan() {
	spec := &st.e.Spec
	for _, v := range st.f.Values {
		if v.Op == ssa.OpVarLoad && v.Var != nil {
			st.varLoads[v.Var] = append(st.varLoads[v.Var], v)
		}
		if v.Op == ssa.OpCall && spec.InPlaceSanitizer != nil && spec.InPlaceSanitizer(v) {
			st.sanitizeArgs(v)
		}
	}
}

func (st *state) sanitizeArgs(v *ssa.Value) {
	for _, a := range v.Args {
		st.sanitizedReg[a.ID] = true
		// A memory-degraded variable dies everywhere: every load
		// aliases the same flow-insensitive cell.
		if a.Op == ssa.OpVarLoad && a.Var != nil {
			st.sanitizedVar[a.Var] = true
		}
	}
}

// seed assigns initial elements: one Param element per parameter, one
// Source element per register the Spec classifies as a source.
func (st *state) seed() {
	var one [1]Elem
	for i, p := range st.f.Params {
		one[0] = Elem{Param: i}
		st.merge(p, one[:])
	}
	if src := st.e.Spec.Source; src != nil {
		for _, v := range st.f.Values {
			if label, ok := src(v); ok {
				one[0] = Elem{Source: label, Param: -1, Path: []string{label}}
				st.merge(v, one[:])
			}
		}
	}
	// Calls whose summaries taint a result independently of arguments
	// (zero-arg sources-by-transitivity) never see an operand change,
	// so transfer each call once up front.
	for _, v := range st.f.Values {
		if v.Op == ssa.OpCall {
			st.applyCall(v)
		}
	}
}

// merge adds elements to a register, queueing its uses on change.
func (st *state) merge(v *ssa.Value, add []Elem) {
	if v == nil || len(add) == 0 || st.sanitizedReg[v.ID] {
		return
	}
	cur := st.elems[v.ID]
	changed := false
	for _, el := range add {
		if hasElem(cur, el.key()) {
			continue
		}
		cur = append(cur, el)
		changed = true
	}
	st.elems[v.ID] = cur
	if changed && !st.inWork[v.ID] {
		st.inWork[v.ID] = true
		st.work = append(st.work, v)
	}
}

// mergeVar adds elements to a memory variable and re-seeds its loads.
func (st *state) mergeVar(obj types.Object, add []Elem) {
	if obj == nil || len(add) == 0 || st.sanitizedVar[obj] {
		return
	}
	cur := st.varElems[obj]
	changed := false
	for _, el := range add {
		if hasElem(cur, el.key()) {
			continue
		}
		cur = append(cur, el)
		changed = true
	}
	if !changed {
		return
	}
	st.varElems[obj] = cur
	for _, ld := range st.varLoads[obj] {
		st.merge(ld, cur)
	}
}

func (st *state) propagate() {
	for len(st.work) > 0 {
		v := st.work[len(st.work)-1]
		st.work = st.work[:len(st.work)-1]
		st.inWork[v.ID] = false
		for _, u := range v.Uses {
			st.apply(u)
		}
	}
}

// apply recomputes one instruction's incoming taint from its operands.
// Monotone: only adds elements.
func (st *state) apply(u *ssa.Value) {
	switch u.Op {
	case ssa.OpLen, ssa.OpMake, ssa.OpReturn, ssa.OpClosure:
		// len/cap strips content taint; make sizes do not taint the
		// fresh zeroed object; returns are read at harvest; closures
		// do not carry operand flow.
		return
	case ssa.OpBinOp:
		if u.IsComparison() {
			return // a comparison result is a bool, not the data
		}
		st.merge(u, st.unionArgs(u, ""))
	case ssa.OpCopy:
		st.merge(u, st.unionArgs(u, u.Name))
	case ssa.OpStore:
		// store base, val[, idx]: the value taints the base register
		// and — through pointers and memory-degraded bases — the
		// variable behind it.
		if len(u.Args) < 2 {
			return
		}
		val := st.elems[u.Args[1].ID]
		base := u.Args[0]
		st.merge(base, val)
		if u.Var != nil {
			st.mergeVar(u.Var, val)
		}
		if base.Op == ssa.OpAddr && len(base.Args) == 1 && base.Args[0].Var != nil {
			st.mergeVar(base.Args[0].Var, val)
		}
	case ssa.OpVarStore:
		if u.Var != nil && len(u.Args) == 1 {
			st.mergeVar(u.Var, st.elems[u.Args[0].ID])
		}
	case ssa.OpCall:
		st.applyCall(u)
	default:
		// Phi, convert, extract, field, index, slice, append,
		// composite, unop, deref, addr, range, unknown: union of
		// operands.
		st.merge(u, st.unionArgs(u, ""))
	}
}

// unionArgs unions the operand elements, appending hop to each witness
// path when non-empty.
func (st *state) unionArgs(u *ssa.Value, hop string) []Elem {
	out := st.scratch[:0]
	var hops []string
	if hop != "" {
		hops = []string{hop}
	}
	for _, a := range u.Args {
		for _, el := range st.elems[a.ID] {
			if hasElem(out, el.key()) {
				continue
			}
			if hops != nil {
				el.Path = appendPath(el.Path, hops, st.e.maxPath())
			}
			out = append(out, el)
		}
	}
	st.scratch = out
	return out
}

// applyCall transfers taint through a call site: sanitizers stop it,
// summaries route it precisely, and unresolved callees pass every
// argument to the result (conservative).
func (st *state) applyCall(u *ssa.Value) {
	spec := &st.e.Spec
	if spec.Sanitizer != nil && spec.Sanitizer(u) {
		return
	}
	if spec.InPlaceSanitizer != nil && spec.InPlaceSanitizer(u) {
		return
	}
	sum := st.summaryFor(u.Callee)
	if sum == nil {
		hop := ""
		if u.Name != "" {
			hop = u.Name + "()"
		}
		st.merge(u, st.unionArgs(u, hop))
		return
	}
	if sum.Empty() {
		return
	}
	hop := []string{u.Callee.Name() + "()"}
	add := st.scratch[:0]
	for _, flow := range sum.Flows {
		for _, a := range st.argsForParam(u, flow.Param) {
			for _, el := range st.elems[a.ID] {
				if hasElem(add, el.key()) {
					continue
				}
				el.Path = appendPath(el.Path, hop, st.e.maxPath())
				add = append(add, el)
			}
		}
	}
	for _, rt := range sum.Results {
		el := Elem{
			Source: rt.Source,
			Param:  -1,
			Path:   appendPath(rt.Path, hop, st.e.maxPath()),
		}
		if !hasElem(add, el.key()) {
			add = append(add, el)
		}
	}
	st.scratch = add
	st.merge(u, add)
}

// summaryFor resolves a callee's summary: the in-flight package map
// first, then the External hook (imported facts).
func (st *state) summaryFor(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	if s, ok := st.summaries[fn]; ok {
		return s
	}
	if st.e.External != nil {
		if s, ok := st.e.External(fn); ok {
			return s
		}
	}
	return nil
}

// argsForParam maps a callee parameter index to the call-site argument
// registers feeding it (several, for the variadic tail). Receiver-first
// indexing matches both OpCall layouts: method values carry the
// receiver as Args[0] (RecvArg), and method expressions pass it as the
// explicit first argument.
func (st *state) argsForParam(u *ssa.Value, param int) []*ssa.Value {
	if param < 0 || param >= len(u.Args) {
		return nil
	}
	pc := paramCount(u.Callee)
	if pc > 0 && param == pc-1 && isVariadic(u.Callee) {
		return u.Args[param:]
	}
	return u.Args[param : param+1]
}

func paramCount(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	return n
}

func isVariadic(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Variadic()
}

// harvest reads the stabilized state: sink hits become findings (source
// elements) or summary sink entries (param elements); returns become
// flows and result taints; callee summary sinks compose at call sites.
func (st *state) harvest(fi FuncInfo) (*Summary, []Finding) {
	sum := &Summary{}
	var findings []Finding
	max := st.e.maxPath()

	record := func(pos int, sink string, elems []Elem) {
		for _, el := range sortedElems(elems) {
			if el.Param >= 0 {
				sum.Sinks = append(sum.Sinks, ParamSink{Param: el.Param, Sink: sink, Path: el.Path})
				continue
			}
			findings = append(findings, Finding{
				Pos: pos, Sink: sink, Source: el.Source, Path: el.Path,
			})
		}
	}

	for _, v := range st.f.Values {
		// Direct sinks declared by the Spec.
		if st.e.Spec.Sinks != nil {
			for _, su := range st.e.Spec.Sinks(v) {
				if su.Arg == nil {
					continue
				}
				record(int(v.Pos), su.Sink, st.elems[su.Arg.ID])
			}
		}
		// Sinks inside callees, composed through summaries.
		if v.Op == ssa.OpCall && v.Callee != nil {
			if cs := st.summaryFor(v.Callee); cs != nil {
				for _, ps := range cs.Sinks {
					for _, a := range st.argsForParam(v, ps.Param) {
						for _, el := range sortedElems(st.elems[a.ID]) {
							path := appendPath(el.Path, append([]string{v.Callee.Name() + "()"}, ps.Path...), max)
							if el.Param >= 0 {
								sum.Sinks = append(sum.Sinks, ParamSink{Param: el.Param, Sink: ps.Sink, Path: path})
								continue
							}
							findings = append(findings, Finding{
								Pos: int(v.Pos), Sink: ps.Sink, Source: el.Source, Path: path,
							})
						}
					}
				}
			}
		}
		// Returns: param elements become flows, source elements become
		// result taints.
		if v.Op == ssa.OpReturn {
			for i, a := range v.Args {
				if i >= st.f.NumResults && st.f.NumResults > 0 {
					break
				}
				for _, el := range sortedElems(st.elems[a.ID]) {
					if el.Param >= 0 {
						sum.Flows = append(sum.Flows, ParamFlow{Param: el.Param, Result: i, Path: el.Path})
					} else {
						sum.Results = append(sum.Results, ResultTaint{Result: i, Source: el.Source, Path: el.Path})
					}
				}
			}
		}
	}

	normalizeSummary(sum)
	return sum, findings
}

// normalizeSummary sorts and dedups every summary list so summaries are
// deterministic and fixpoint comparison is positional.
func normalizeSummary(s *Summary) {
	sort.Slice(s.Flows, func(i, j int) bool {
		if s.Flows[i].Param != s.Flows[j].Param {
			return s.Flows[i].Param < s.Flows[j].Param
		}
		return s.Flows[i].Result < s.Flows[j].Result
	})
	s.Flows = dedup(s.Flows, func(a, b ParamFlow) bool { return a.Param == b.Param && a.Result == b.Result })
	sort.Slice(s.Results, func(i, j int) bool {
		if s.Results[i].Result != s.Results[j].Result {
			return s.Results[i].Result < s.Results[j].Result
		}
		return s.Results[i].Source < s.Results[j].Source
	})
	s.Results = dedup(s.Results, func(a, b ResultTaint) bool { return a.Result == b.Result && a.Source == b.Source })
	sort.Slice(s.Sinks, func(i, j int) bool {
		if s.Sinks[i].Param != s.Sinks[j].Param {
			return s.Sinks[i].Param < s.Sinks[j].Param
		}
		return s.Sinks[i].Sink < s.Sinks[j].Sink
	})
	s.Sinks = dedup(s.Sinks, func(a, b ParamSink) bool { return a.Param == b.Param && a.Sink == b.Sink })
}

func dedup[T any](list []T, eq func(a, b T) bool) []T {
	out := list[:0]
	for i, x := range list {
		if i > 0 && eq(x, list[i-1]) {
			continue
		}
		out = append(out, x)
	}
	return out
}

// sortedElems returns a copy of the element set in canonical (source,
// param) order — harvest iterates these, and summary/finding order must
// not depend on insertion order.
func sortedElems(set []Elem) []Elem {
	if len(set) == 0 {
		return nil
	}
	out := append([]Elem(nil), set...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Param < out[j].Param
	})
	return out
}

// appendPath appends hops to a copied witness path, collapsing
// consecutive duplicates and truncating with "…" once the k-bound is
// hit.
func appendPath(path []string, hops []string, max int) []string {
	out := make([]string, len(path), len(path)+len(hops))
	copy(out, path)
	for _, h := range hops {
		if h == "" {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == h {
			continue // collapse consecutive identical hops
		}
		if len(out) >= max {
			if out[len(out)-1] != "…" {
				out = append(out, "…")
			}
			return out
		}
		out = append(out, h)
	}
	return out
}
