package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/cfg"
)

// DetTaint is the determinism analyzer: products, decision logs, traces
// and cost reports must be a pure function of (inputs, seed), so that a
// degraded or repaired re-run rewrites the same bytes. One table of
// sources (detSourceLabel), one sanitizer (time.Since) and one
// canonicalizer list (detInPlace), all read off one forward may-taint
// solve per function over its CFG, with summaries carrying
// taint across functions and packages. A source value is reported where
// it reaches a product write (an argument of a productWriteRoot) or an
// obs span timestamp, with the witness path of variable and call hops
// it took. Test files get no findings but feed the summaries.
//
// Inside the deterministic packages (deterministicPkgs), non-test
// function bodies only, three kernel rules make the source the finding:
//
//  1. no global math/rand draw (seeded *rand.Rand methods are fine);
//  2. no time.Now whose value, copied from variable to variable, is
//     consumed by anything but time.Since or Time.Sub (inject a clock);
//  3. no map range whose order reaches a stream write (fmt.Print*,
//     fmt.Fprint*, a Write/WriteString/WriteByte method), or whose
//     values are appended to a slice declared before the loop that the
//     function never sorts in place.
var DetTaint = &analysis.Analyzer{
	Name:      "dettaint",
	Doc:       "forbid ambient entropy (global rand, wall clock, map order) in the deterministic packages and track it interprocedurally into product writes",
	Run:       runDetTaint,
	FactTypes: []analysis.Fact{(*DetTaintSummary)(nil)},
}

// DetTaintSummary is one function's boundary behaviour, carried across
// package boundaries as a fact; its edges are sorted and unique by key.
type DetTaintSummary struct {
	edges []detEdge
}

func (*DetTaintSummary) AFact() {}

// A detEdge is one way taint crosses a function boundary, or, as a
// finding, one source reaching a sink.
type detEdge struct {
	kind         detEdgeKind
	pos          token.Pos // finding: the sink call
	param        int       // flowEdge, sinkEdge: the parameter, receiver first
	res          int       // flowEdge, resultEdge: the result
	sink, source string
	path         *detPath
}

type detEdgeKind uint8

const (
	flowEdge   detEdgeKind = iota // the parameter's taint reaches the result
	resultEdge                    // the result carries source taint
	sinkEdge                      // the parameter reaches a sink
	finding                       // not an edge: a source reaching a sink
)

// compare orders edges by everything but the witness path.
func (e detEdge) compare(o detEdge) int {
	return cmp.Or(cmp.Compare(e.kind, o.kind), cmp.Compare(e.pos, o.pos), cmp.Compare(e.param, o.param),
		cmp.Compare(e.res, o.res), strings.Compare(e.sink, o.sink), strings.Compare(e.source, o.source))
}

func (e detEdge) sameKey(o detEdge) bool { return e.compare(o) == 0 }

const (
	detMaxPath     = 8  // witness hops; a truncated path ends in "…"
	detMaxRounds   = 12 // re-solves per function: stops path churn under recursion
	mapOrderSource = "map iteration order"
)

// detSourceLabel classifies a call as a nondeterminism source.
func detSourceLabel(fn *types.Func) (string, bool) {
	switch {
	case fn == nil:
	case isPkgFunc(fn, "time", "Now"):
		return "time.Now", true
	case isPkgFunc(fn, "runtime", "NumGoroutine"):
		return "runtime.NumGoroutine", true
	case isPkgFunc(fn, "os", "Getpid"):
		return "os.Getpid", true
	case fn.Pkg() != nil && (fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2"):
		// Package-level draws read the shared global source; methods on
		// a seeded *rand.Rand are reproducible.
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil && fn.Exported() && !strings.HasPrefix(fn.Name(), "New") {
			return "math/rand." + fn.Name(), true
		}
	}
	return "", false
}

// detObsTimeArgs maps obs span methods to their timestamp parameters
// (receiver excluded): span times must come from the injected clock.
var detObsTimeArgs = map[string][]int{
	"EndAt":  {0},    // (t)
	"SpanAt": {3, 4}, // (parent, cat, name, start, end)
}

// detInPlace: sorting canonicalizes an order-tainted collection.
func detInPlace(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// readsClock reports whether fn turns a wall-clock reading into a
// duration (time.Since, Time.Sub): the only uses kernel rule 2 allows.
func readsClock(fn *types.Func) bool {
	return isPkgFunc(fn, "time", "Since") ||
		fn != nil && fn.Name() == "Sub" && fn.Pkg() != nil && fn.Pkg().Path() == "time"
}

// streamWrite names the stream-writing call to fn, or "".
func streamWrite(fn *types.Func, recv bool) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch name := fn.Name(); name {
	case "Fprintf", "Fprintln", "Fprint", "Printf", "Println", "Print":
		if fn.Pkg().Path() == "fmt" {
			return "fmt." + name
		}
	case "Write", "WriteString", "WriteByte":
		if recv {
			return name
		}
	}
	return ""
}

func runDetTaint(pass *analysis.Pass) error {
	funcs := pass.Funcs()
	d := &detPass{pass: pass, summaries: map[*types.Func]*DetTaintSummary{}}
	fns := make([]*detFunc, len(funcs))
	callersOf := map[*types.Func][]int{}
	for i, fc := range funcs {
		fns[i] = d.newFunc(fc, isDeterministicPkg(pass.Pkg) && !isTestFile(pass.Fset, fc.Body.Pos()))
		for _, callee := range fns[i].callees {
			callersOf[callee] = append(callersOf[callee], i)
		}
	}

	// A function is re-solved only when a callee's summary materializes
	// or changes (witness paths aside).
	reports := make([]*detReport, len(fns))
	rounds := make([]int, len(fns))
	queued := make([]bool, len(fns))
	queue := make([]int, len(fns))
	for i := range fns {
		queue[i], queued[i] = i, true
	}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		queued[i] = false
		if rounds[i] >= detMaxRounds {
			continue
		}
		rounds[i]++
		fn := fns[i].fc.Fn
		reports[i] = fns[i].analyze()
		if fn == nil {
			continue
		}
		prev := d.summaries[fn]
		d.summaries[fn] = &reports[i].sum
		if prev != nil && slices.EqualFunc(prev.edges, reports[i].sum.edges, detEdge.sameKey) {
			continue
		}
		for _, c := range callersOf[fn] {
			if !queued[c] {
				queued[c] = true
				queue = append(queue, c)
			}
		}
	}

	for fn, sum := range d.summaries {
		if fn.Pkg() == pass.Pkg && sum != nil && len(sum.edges) > 0 {
			pass.ExportObjectFact(fn, sum)
		}
	}
	r := newReporter(pass)
	var findings []detEdge
	for _, rep := range reports {
		for _, k := range rep.kernel {
			r.report(k)
		}
		findings = append(findings, rep.findings...)
	}
	slices.SortStableFunc(findings, detEdge.compare)
	for i, f := range findings {
		if i > 0 && findings[i-1].sameKey(f) || isTestFile(pass.Fset, f.pos) {
			continue // one finding per (site, sink, source)
		}
		r.reportf(f.pos,
			"nondeterministic value from %s reaches %s (witness: %s); the product cannot be byte-compared across re-runs — derive it deterministically or canonicalize (sort) before writing",
			f.source, f.sink, strings.Join(f.path.hops(), " → "))
	}
	return nil
}

// detPass is the package-level state of one dettaint run.
type detPass struct {
	pass *analysis.Pass
	// summaries holds this package's functions as solved so far and the
	// imported facts looked up, nil where no summary is known.
	summaries map[*types.Func]*DetTaintSummary
}

func (d *detPass) summaryFor(fn *types.Func) *DetTaintSummary {
	s, ok := d.summaries[fn]
	if !ok && fn != nil {
		var f DetTaintSummary
		if d.pass.ImportObjectFact(fn, &f) {
			s = &f
		}
		d.summaries[fn] = s
	}
	return s
}

// A detPath is a witness path, shared and extended without copying:
// each node is one hop, the tip last.
type detPath struct {
	hop  string
	prev *detPath
	n    int
}

// push appends a hop, collapsing a repeat of the last one and
// truncating with "…" once the path holds detMaxPath hops.
func (p *detPath) push(h string) *detPath {
	switch {
	case p == nil:
		return &detPath{hop: h, n: 1}
	case p.hop == h || p.n >= detMaxPath && p.hop == "…":
		return p
	case p.n >= detMaxPath:
		h = "…"
	}
	return &detPath{hop: h, prev: p, n: p.n + 1}
}

func (p *detPath) hops() []string {
	var out []string
	for ; p != nil; p = p.prev {
		out = append(out, p.hop)
	}
	slices.Reverse(out)
	return out
}

// detElem is one unit of taint on a value: "derives from source
// <source>" (param < 0) or "derives from parameter <param>" (the
// elements summaries are built from).
type detElem struct {
	source string
	param  int
	// site is set only under the kernel rules: the time.Now call whose
	// raw reading this still is (copies keep it; any other use consumes
	// it), or the map range statement this value derives from.
	site token.Pos
	path *detPath // the witness; not part of the identity
}

func (e detElem) same(o detElem) bool {
	return e.source == o.source && e.param == o.param && e.site == o.site
}

func (e detElem) rawNow() bool { return e.site != token.NoPos && e.source == "time.Now" }

func (e detElem) rangeSite() bool { return e.site != token.NoPos && e.source == mapOrderSource }

func sourceElem(label string) detElem {
	return detElem{source: label, param: -1, path: (*detPath)(nil).push(label)}
}

// detSet is a small immutable element set, shared freely between
// states: operations that add return a fresh slice. Almost every
// tainted value carries one or two elements, so a scan beats hashing.
type detSet []detElem

func (s detSet) has(e detElem) bool {
	return slices.ContainsFunc(s, e.same)
}

// with returns s plus the elements of add it lacks; the first witness
// of an element wins.
func (s detSet) with(add detSet) detSet {
	if len(s) == 0 {
		return add
	}
	out := s[:len(s):len(s)]
	for _, e := range add {
		if !out.has(e) {
			out = append(out, e)
		}
	}
	return out
}

// hop appends a witness hop to every element.
func (s detSet) hop(h string) detSet {
	if len(s) == 0 || h == "" {
		return s
	}
	out := make(detSet, len(s))
	for i, e := range s {
		e.path = e.path.push(h)
		out[i] = e
	}
	return out
}

// clearSites turns the elements that match into their site-free form.
func (s detSet) clearSites(match func(detElem) bool) detSet {
	if !slices.ContainsFunc(s, match) {
		return s
	}
	var out detSet
	for _, e := range s {
		if match(e) {
			e.site = token.NoPos
		}
		if !out.has(e) {
			out = append(out, e)
		}
	}
	return out
}

func (s detSet) sameKeys(o detSet) bool {
	return len(s) == len(o) && (len(s) == 0 || &s[0] == &o[0] ||
		!slices.ContainsFunc(s, func(e detElem) bool { return !o.has(e) }))
}

// detVars is the flow-sensitive state at one program point: the
// element set of every tracked local, by the function's dense variable
// index.
type detVars []detSet

func joinDetVars(a, b detVars) detVars {
	out := a
	for i := range a {
		if m := a[i].with(b[i]); len(m) != len(a[i]) {
			if &out[0] == &a[0] {
				out = slices.Clone(a)
			}
			out[i] = m
		}
	}
	return out
}

// equalDetVars compares element identities only: witness paths are
// not facts, so they cannot keep the solve from converging.
func equalDetVars(a, b detVars) bool {
	for i := range a {
		if !a[i].sameKeys(b[i]) {
			return false
		}
	}
	return true
}

// detFunc is one function body under analysis.
type detFunc struct {
	d      *detPass
	fc     *analysis.Func
	info   *types.Info
	kernel bool // the kernel rules apply to this body

	params  []*types.Var       // receiver first; nil for literals
	results []*types.Var       // named results, nil where unnamed
	index   map[*types.Var]int // tracked locals: index into detVars
	// memVars, whose address is taken or that a nested function literal
	// references, are one flow-insensitive cell each, like package-level
	// variables. sortedVars, which an in-place sort canonicalizes
	// somewhere in the body, carry no taint anywhere in it.
	memVars, sortedVars map[*types.Var]bool
	ranges              map[ast.Expr]*ast.RangeStmt // by operand: the CFG holds only X
	callees             []*types.Func
	sources             bool // calls a source or ranges over a map

	state detVars // during a block transfer; copied on first write (own)
	own   bool
	cells map[*types.Var]detSet // per solve
	grew  bool                  // a cell gained an element during this solve
	rep   *detReport            // non-nil during the reporting walk
}

// detReport is what the reporting walk reads off one solved function.
type detReport struct {
	sum      DetTaintSummary
	findings []detEdge
	kernel   []analysis.Diagnostic

	escaped map[token.Pos]bool                // rule 2: time.Now calls whose reading escaped
	order   map[token.Pos]analysis.Diagnostic // rule 3: earliest hit per range
}

func (d *detPass) newFunc(fc *analysis.Func, kernel bool) *detFunc {
	info := d.pass.TypesInfo
	f := &detFunc{
		d: d, fc: fc, info: info, kernel: kernel,
		index:      map[*types.Var]int{},
		memVars:    map[*types.Var]bool{},
		sortedVars: map[*types.Var]bool{},
		ranges:     map[ast.Expr]*ast.RangeStmt{},
	}
	track := func(v *types.Var) {
		if _, ok := f.index[v]; !ok {
			f.index[v] = len(f.index)
		}
	}
	var sig *types.Signature
	if fc.Fn != nil {
		sig, _ = fc.Fn.Type().(*types.Signature)
		if sig.Recv() != nil {
			f.params = append(f.params, sig.Recv())
		}
		for i := 0; i < sig.Params().Len(); i++ {
			f.params = append(f.params, sig.Params().At(i))
		}
	} else if tv, ok := info.Types[fc.Lit]; ok {
		sig, _ = tv.Type.(*types.Signature)
	}
	if sig != nil {
		for i := 0; i < sig.Results().Len(); i++ {
			var named *types.Var
			if r := sig.Results().At(i); r.Name() != "" && r.Name() != "_" {
				named = r
				track(r)
			}
			f.results = append(f.results, named)
		}
	}
	for _, p := range f.params {
		track(p)
	}

	localVar := func(id *ast.Ident) *types.Var {
		if v, ok := info.ObjectOf(id).(*types.Var); ok && !v.IsField() && !isPkgLevel(v) {
			return v
		}
		return nil
	}
	seen := map[*types.Func]bool{}
	ast.Inspect(fc.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && localVar(id) != nil {
					f.memVars[localVar(id)] = true
				}
				return true
			})
			return false // a nested body is its own function
		case *ast.Ident:
			if v := localVar(n); v != nil {
				track(v)
			}
		case *ast.RangeStmt:
			f.ranges[n.X] = n
			f.sources = f.sources || isMapType(info, n.X)
		case *ast.UnaryExpr:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && n.Op == token.AND && localVar(id) != nil {
				f.memVars[localVar(id)] = true
			}
		case *ast.CallExpr:
			fn := analysis.Callee(info, n)
			if fn != nil && !seen[fn] {
				seen[fn] = true
				f.callees = append(f.callees, fn)
				_, isSource := detSourceLabel(fn)
				f.sources = f.sources || isSource
			}
			if detInPlace(fn) {
				for _, a := range n.Args {
					if id, ok := ast.Unparen(a).(*ast.Ident); ok {
						if v, ok := info.ObjectOf(id).(*types.Var); ok {
							f.sortedVars[v] = true
						}
					}
				}
			}
		}
		return true
	})
	return f
}

func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// analyze solves the function against the current summaries and reads
// its summary, findings and kernel diagnostics off the solution.
func (f *detFunc) analyze() *detReport {
	rep := &detReport{}
	// Parameter taint matters only where it can reach a result or a
	// sink; with no parameter taint and no source, nothing is tainted.
	seedParams, sources := len(f.results) > 0, f.sources
	for _, fn := range f.callees {
		seedParams = seedParams || productWriteRoot(fn) || fn.Pkg() != nil && fn.Pkg().Name() == "obs"
		if sum := f.d.summaryFor(fn); sum != nil {
			for _, e := range sum.edges {
				seedParams = seedParams || e.kind == sinkEdge
				sources = sources || e.kind == resultEdge
			}
		}
	}
	seedParams = seedParams && len(f.params) > 0
	if !seedParams && !sources {
		return rep
	}

	f.cells = map[*types.Var]detSet{}
	entry := make(detVars, len(f.index))
	if seedParams {
		for i, p := range f.params {
			if f.isCell(p) {
				f.addCell(p, detSet{{param: i}})
			} else if !f.sortedVars[p] {
				entry[f.index[p]] = detSet{{param: i}}
			}
		}
	}
	transfer := func(b *cfg.Block, in detVars) detVars {
		f.state, f.own = in, false
		for _, n := range b.Nodes {
			f.node(n)
		}
		return f.state
	}
	// A cell that grows invalidates the reads the solve already made of
	// it; cells only grow, so re-solving terminates.
	var sol map[*cfg.Block]detVars
	for f.grew = true; f.grew; {
		f.grew = false
		sol = cfg.Forward(f.fc.CFG, entry, transfer, joinDetVars, equalDetVars)
	}

	if f.kernel {
		rep.escaped = map[token.Pos]bool{}
		rep.order = map[token.Pos]analysis.Diagnostic{}
	}
	f.rep = rep
	for _, b := range f.fc.CFG.Blocks {
		if in, ok := sol[b]; ok {
			transfer(b, in)
		}
	}
	f.rep = nil

	for pos := range rep.escaped {
		rep.kernel = append(rep.kernel, analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(
			"time.Now in deterministic package %q may reach results; keep wall-clock reads to telemetry (time.Since) or inject the clock",
			f.d.pass.Pkg.Name())})
	}
	for site, hit := range rep.order {
		rep.kernel = append(rep.kernel, analysis.Diagnostic{Pos: site, Message: hit.Message})
	}
	slices.SortStableFunc(rep.kernel, func(a, b analysis.Diagnostic) int { return cmp.Compare(a.Pos, b.Pos) })
	edges := rep.sum.edges
	slices.SortStableFunc(edges, detEdge.compare)
	rep.sum.edges = slices.CompactFunc(edges, detEdge.sameKey)
	return rep
}

// isCell reports whether v is one flow-insensitive cell for the whole
// function: a package-level variable or a memVar.
func (f *detFunc) isCell(v *types.Var) bool {
	return f.memVars[v] || isPkgLevel(v)
}

func (f *detFunc) addCell(v *types.Var, s detSet) {
	if cur := f.cells[v]; len(s) > 0 && !f.sortedVars[v] {
		if next := cur.with(s); len(next) != len(cur) {
			f.cells[v], f.grew = next, true
		}
	}
}

// noteOrder records a kernel rule 3 hit at pos for every map range s
// derives from; the earliest hit per range is its diagnostic.
func (rep *detReport) noteOrder(s detSet, pos token.Pos, msg string) {
	for _, e := range s {
		if have, ok := rep.order[e.site]; e.rangeSite() && (!ok || pos < have.Pos) {
			rep.order[e.site] = analysis.Diagnostic{Pos: pos, Message: msg}
		}
	}
}

// node applies one atomic CFG node: a simple statement or the
// controlling expression of a compound statement.
func (f *detFunc) node(n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		f.assign(n)
	case *ast.DeclStmt:
		f.decl(n)
	case *ast.IncDecStmt:
		f.assignTo(n.X, f.operand(n.X))
	case *ast.ReturnStmt:
		f.ret(n)
	case *ast.ExprStmt:
		f.eval(n.X)
	case *ast.GoStmt:
		f.eval(n.Call)
	case *ast.DeferStmt:
		f.eval(n.Call)
	case *ast.SendStmt:
		f.operand(n.Chan)
		f.operand(n.Value)
	case ast.Expr:
		if rng, ok := f.ranges[n]; ok {
			f.rangeHeader(rng)
		} else {
			f.eval(n)
		}
	}
}

func (f *detFunc) assign(as *ast.AssignStmt) {
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		s := f.operand(as.Rhs[0])
		for _, l := range as.Lhs {
			f.assignTo(l, s)
		}
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	vals := make([]detSet, len(as.Rhs))
	for i, r := range as.Rhs {
		vals[i] = f.eval(r)
	}
	for i, l := range as.Lhs {
		val := vals[i]
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			val = f.operand(l).with(f.consume(val)) // x op= y reads x too
		}
		f.assignTo(l, val)
	}
}

// assignTo routes one assigned value to its destination: a variable,
// or a store through a field, index or pointer, which taints the
// variable it is based on.
func (f *detFunc) assignTo(dst ast.Expr, val detSet) {
	switch dst := ast.Unparen(dst).(type) {
	case *ast.Ident:
		f.bind(dst, val, false)
	case *ast.IndexExpr:
		f.operand(dst.Index)
		f.store(dst.X, val)
	case *ast.SelectorExpr:
		f.store(dst.X, val)
	case *ast.StarExpr:
		f.store(dst.X, val)
	default:
		f.consume(val)
	}
}

func (f *detFunc) store(base ast.Expr, val detSet) {
	val = f.consume(val)
	f.operand(base)
	if id, ok := ast.Unparen(base).(*ast.Ident); ok {
		f.bind(id, val, true)
	}
}

// bind assigns a variable: a cell gains the value's elements; a
// tracked local takes the value with a witness hop naming it, or, for
// a store through it (weak), adds the value's elements as they are.
func (f *detFunc) bind(id *ast.Ident, val detSet, weak bool) {
	v, ok := f.info.ObjectOf(id).(*types.Var)
	if !ok || id.Name == "_" || v.IsField() || f.sortedVars[v] {
		return
	}
	if f.isCell(v) {
		f.addCell(v, val)
		return
	}
	i, ok := f.index[v]
	switch {
	case !ok:
		return
	case weak:
		val = f.state[i].with(val)
	default:
		val = val.hop(v.Name())
	}
	if !f.own {
		if len(val) == 0 && len(f.state[i]) == 0 {
			return
		}
		f.state, f.own = slices.Clone(f.state), true
	}
	f.state[i] = val
}

func (f *detFunc) decl(ds *ast.DeclStmt) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs := spec.(*ast.ValueSpec)
		lhs := make([]ast.Expr, len(vs.Names))
		for i, id := range vs.Names {
			lhs[i] = id
			if len(vs.Values) == 0 {
				f.bind(id, nil, false) // the zero value
			}
		}
		f.assign(&ast.AssignStmt{Lhs: lhs, Tok: token.DEFINE, Rhs: vs.Values})
	}
}

func (f *detFunc) ret(n *ast.ReturnStmt) {
	switch {
	case len(n.Results) == 0: // a bare return reads the named results
		for i, v := range f.results {
			if v != nil {
				f.result(i, f.consume(f.load(v)))
			}
		}
	case len(n.Results) == 1 && len(f.results) > 1: // return f()
		s := f.operand(n.Results[0])
		for i := range f.results {
			f.result(i, s)
		}
	default:
		for i, r := range n.Results {
			if s := f.operand(r); i < len(f.results) {
				f.result(i, s)
			}
		}
	}
}

// result records what result i carries: parameter elements become
// flow edges, source elements result edges.
func (f *detFunc) result(i int, s detSet) {
	rep := f.rep
	if rep == nil || f.fc.Fn == nil {
		return
	}
	for _, e := range s {
		kind := flowEdge
		if e.param < 0 {
			kind = resultEdge
		}
		rep.sum.edges = append(rep.sum.edges, detEdge{kind: kind, param: e.param, res: i, source: e.source, path: e.path})
	}
}

// rangeHeader binds a range statement's key and value to the operand's
// taint, plus map order when the operand is a map.
func (f *detFunc) rangeHeader(rng *ast.RangeStmt) {
	s := f.operand(rng.X)
	if isMapType(f.info, rng.X) {
		e := sourceElem(mapOrderSource)
		if f.kernel {
			e.site = rng.Pos()
		}
		s = detSet{e}.with(s)
	}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if e != nil {
			f.assignTo(e, s)
		}
	}
}

func (f *detFunc) load(v *types.Var) detSet {
	if f.isCell(v) {
		return f.cells[v]
	}
	if i, ok := f.index[v]; ok {
		return f.state[i]
	}
	return nil
}

// consume marks the value as used by something other than a variable
// copy: a raw time.Now reading escapes there and becomes plain taint.
func (f *detFunc) consume(s detSet) detSet {
	if rep := f.rep; rep != nil && rep.escaped != nil {
		for _, e := range s {
			if e.rawNow() {
				rep.escaped[e.site] = true
			}
		}
	}
	return s.clearSites(detElem.rawNow)
}

// operand evaluates an expression whose value is consumed.
func (f *detFunc) operand(e ast.Expr) detSet {
	return f.consume(f.eval(e))
}

// eval evaluates an expression to the elements of its value. Only a
// variable read and the time.Now call itself hand back a raw reading.
func (f *detFunc) eval(e ast.Expr) detSet {
	info := f.info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(e).(*types.Var); ok && !v.IsField() {
			return f.load(v)
		}
	case *ast.CallExpr:
		return f.call(e)
	case *ast.SelectorExpr:
		if _, ok := info.Selections[e]; ok {
			return f.operand(e.X) // a field or a method value: the base's taint
		}
	case *ast.IndexExpr:
		if tv, ok := info.Types[e]; ok {
			if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
				return f.eval(e.X) // a generic instantiation
			}
		}
		return f.operand(e.X).with(f.operand(e.Index))
	case *ast.IndexListExpr:
		return f.eval(e.X)
	case *ast.SliceExpr:
		s := f.operand(e.X)
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			if idx != nil {
				s = s.with(f.operand(idx))
			}
		}
		return s
	case *ast.StarExpr:
		return f.operand(e.X)
	case *ast.UnaryExpr:
		return f.operand(e.X)
	case *ast.TypeAssertExpr:
		return f.operand(e.X)
	case *ast.BinaryExpr:
		s := f.operand(e.X).with(f.operand(e.Y))
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return nil // a comparison is a bool, not the data
		}
		return s
	case *ast.CompositeLit:
		var s detSet
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				// Map keys are values too; struct field names are not.
				if _, isIdent := kv.Key.(*ast.Ident); !isIdent || isMapType(info, e) {
					s = s.with(f.operand(kv.Key))
				}
				elt = kv.Value
			}
			s = s.with(f.operand(elt))
		}
		return s
	}
	return nil // constants, function values, literals, types
}

func (f *detFunc) call(call *ast.CallExpr) detSet {
	info := f.info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return f.operand(call.Args[0]) // a conversion
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return f.builtin(id.Name, call)
		}
	}

	// Operands, receiver first; an indirect call's function value is
	// operand 0. time.Since and Time.Sub read a raw time.Now without
	// consuming it.
	fn := analysis.Callee(info, call)
	arg := f.operand
	if readsClock(fn) {
		arg = func(e ast.Expr) detSet { return f.eval(e).clearSites(detElem.rawNow) }
	}
	var args []detSet
	recv := false
	if fn == nil {
		args = append(args, f.operand(call.Fun))
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			args, recv = append(args, arg(sel.X)), true
		}
	}
	for _, a := range call.Args {
		args = append(args, arg(a))
	}

	var out detSet
	label, isSource := detSourceLabel(fn)
	if isSource {
		e := sourceElem(label)
		if f.kernel && label == "time.Now" {
			e.site = call.Pos()
		}
		out = detSet{e}
	}
	switch sum := f.d.summaryFor(fn); {
	case isPkgFunc(fn, "time", "Since") || detInPlace(fn):
		// sanitizers: the result is clean
	case sum == nil:
		// No summary: the arguments' taint passes to the result only.
		hop := ""
		if fn != nil {
			hop = fn.Name() + "()"
		}
		for _, a := range args {
			out = out.with(a.hop(hop))
		}
	default:
		for _, edge := range sum.edges {
			switch edge.kind {
			case flowEdge:
				for _, a := range argsForParam(fn, args, edge.param) {
					out = out.with(a.hop(fn.Name() + "()"))
				}
			case resultEdge:
				out = out.with(detSet{{source: edge.source, param: -1, path: edge.path.push(fn.Name() + "()")}})
			}
		}
	}
	if f.rep != nil {
		f.reportCall(call, fn, recv, args, label)
	}
	return out
}

// reportCall reads one call site during the reporting walk: its sinks
// (the operands of a product write, obs span timestamps, and the
// callee's summary sinks) and the kernel rules' draws and writes.
func (f *detFunc) reportCall(call *ast.CallExpr, fn *types.Func, recv bool, args []detSet, label string) {
	rep, pos := f.rep, call.Pos()
	if fn == nil || fn.Pkg() == nil {
		return
	}
	first := 0
	if recv {
		first = 1 // the receiver is the writer, not the written value
	}
	for i := first; i < len(args) && productWriteRoot(fn); i++ {
		rep.sink(pos, fmt.Sprintf("%s.%s (arg %d)", fn.Pkg().Name(), fn.Name(), i+1-first), args[i], nil)
	}
	for _, p := range detObsTimeArgs[fn.Name()] {
		if fn.Pkg().Name() == "obs" && p+first < len(args) {
			rep.sink(pos, fmt.Sprintf("obs.%s (time arg %d)", fn.Name(), p), args[p+first], nil)
		}
	}
	if cs := f.d.summaryFor(fn); cs != nil {
		for _, edge := range cs.edges {
			if edge.kind == sinkEdge {
				hops := append([]string{fn.Name() + "()"}, edge.path.hops()...)
				for _, a := range argsForParam(fn, args, edge.param) {
					rep.sink(pos, edge.sink, a, hops)
				}
			}
		}
	}
	if !f.kernel {
		return
	}
	if strings.HasPrefix(label, "math/rand.") {
		rep.kernel = append(rep.kernel, analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(
			"global math/rand call rand.%s is nondeterministic; draw from a seeded *rand.Rand threaded from the scenario/config", fn.Name())})
	}
	if name := streamWrite(fn, recv); name != "" {
		for _, a := range args {
			rep.noteOrder(a, pos, fmt.Sprintf(
				"map iteration order reaches output: %s writes in nondeterministic order; sort the keys first", name))
		}
	}
}

// sink records the elements reaching one sink operand: source elements
// are findings, parameter elements summary sink edges.
func (rep *detReport) sink(pos token.Pos, sink string, s detSet, hops []string) {
	for _, e := range s {
		path := e.path
		for _, h := range hops {
			path = path.push(h)
		}
		if e.param >= 0 {
			rep.sum.edges = append(rep.sum.edges, detEdge{kind: sinkEdge, param: e.param, sink: sink, path: path})
		} else {
			rep.findings = append(rep.findings, detEdge{kind: finding, pos: pos, param: -1, sink: sink, source: e.source, path: path})
		}
	}
}

// builtin evaluates a call to a builtin: len, cap, make and new carry
// no content taint, append unions its operands, and every other
// builtin passes its arguments' taint to its result.
func (f *detFunc) builtin(name string, call *ast.CallExpr) detSet {
	args := call.Args
	if name == "make" && len(args) > 0 {
		args = args[1:] // the type
	}
	var s detSet
	for _, a := range args {
		s = s.with(f.operand(a))
	}
	switch name {
	case "len", "cap", "make", "new":
		return nil
	case "append":
		// Rule 3 judges a range's order where an append grows a slice
		// declared before the range (and never sorted): the result carries
		// plain map-order taint, not the range site.
		id, ok := ast.Unparen(args[0]).(*ast.Ident)
		v, _ := f.info.ObjectOf(id).(*types.Var)
		if rep := f.rep; ok && v != nil && rep != nil && rep.order != nil && !f.sortedVars[v] {
			for _, e := range s {
				if v.Pos() < e.site {
					rep.noteOrder(detSet{e}, call.Pos(), fmt.Sprintf(
						"map iteration appends to %q in nondeterministic order; sort the keys first or sort %q before it is used", v.Name(), v.Name()))
				}
			}
		}
		return s.clearSites(detElem.rangeSite)
	}
	return s.hop(name + "()")
}

// argsForParam maps a callee parameter index (receiver first) to the
// call operands feeding it: several, for the variadic tail.
func argsForParam(fn *types.Func, args []detSet, param int) []detSet {
	if param < 0 || param >= len(args) {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Variadic() {
		last := sig.Params().Len() - 1
		if sig.Recv() != nil {
			last++
		}
		if param == last {
			return args[param:]
		}
	}
	return args[param : param+1]
}
