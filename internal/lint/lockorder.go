package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/cfg"
)

// LockOrder is the lock analyzer. Per function it computes the set of
// locks held at every program point (a forward may/must dataflow over
// the CFG from ctrlflow) and reads every lock verdict off that one
// solution:
//
//   - lock-order inversion: lock B acquired while A is held somewhere,
//     and A acquired while B is held (directly or through a chain)
//     somewhere else — the classic AB/BA deadlock, including when one
//     side of the cycle lives in another package (sched holding its
//     mutex while calling into transit, say);
//   - double lock: a second mu.Lock() on a path where mu may already be
//     held (self-deadlock), including read-to-write upgrades;
//   - unlock while not held: mu.Unlock() on a path where mu is not held
//     (not on any path, or not on every path into the point). A function
//     literal that is the operand of a defer runs at its parent's exit,
//     under the parent's locks, and is exempt;
//   - leaked lock: a return reached while a lock may be held and no
//     deferred unlock of it exists in the function, or a lock held on
//     every path into the function's exit;
//   - channel operation under a lock, in the rank-exchange packages
//     (rankExchangePkgs): a send or receive while a lock may be held —
//     a blocked channel op under a lock stalls every peer that next
//     contends that lock, deadlocking the mesh.
//
// One syntactic rule rides along (lockcopy.go): locks are never copied
// by value.
//
// Two fact types carry the analysis across package boundaries: a
// LockSummary object fact per function (the global lock keys the
// function may acquire, transitively), and a LockEdges package fact (the
// acquired-before pairs established by the package and everything it
// imports). A package's analysis therefore sees the full ordering
// established below it in the import DAG; inversions between packages
// with no import relation in either direction are out of scope (no
// compilation unit ever sees both sides).
//
// Lock identity is two-level. Within a function, locks are tracked by
// receiver expression ("s.mu", "w.reduceMu"), which distinguishes
// instances precisely enough for the per-function checks. In the
// global graph, locks are keyed by declaration — "pkg.Type.field" for
// struct-field mutexes, "pkg.var" for package-level mutexes — which
// conflates instances of one type. Edges between two locks with the
// same global key are therefore skipped (two instances of one type may
// be locked in either order legitimately, e.g. ordered by index);
// deferred unlocks leave the lock held in the solution, which is
// exactly the window a nested acquisition or a channel operation
// happens in.
//
// The path rules skip test files; a conditional lock/unlock pair the
// path-insensitive solve cannot correlate should switch to defer or
// carry a //lint:allow lockorder comment with justification.
var LockOrder = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "detect lock-order inversions, double locks, unlocks of unheld locks, leaked locks, lock copies, and channel ops under locks",
	Run:       runLockOrder,
	Requires:  []*analysis.Analyzer{CallGraph, CtrlFlow},
	FactTypes: []analysis.Fact{(*LockSummary)(nil), (*LockEdges)(nil)},
}

// LockSummary is the object fact on a function: the global lock keys it
// may acquire, directly or through its (transitive) callees.
type LockSummary struct {
	Acquires []string // sorted unique global lock keys
}

func (*LockSummary) AFact() {}

// LockPair is one acquired-before relation: Before was held when After
// was acquired.
type LockPair struct {
	Before, After string
}

// LockEdges is the package fact: every acquired-before pair established
// by this package and the packages it imports (the union makes each
// fact self-contained, so readers need only direct imports).
type LockEdges struct {
	Pairs []LockPair // sorted by (Before, After), unique
}

func (*LockEdges) AFact() {}

func init() {
	analysis.RegisterFactType(&LockSummary{})
	analysis.RegisterFactType(&LockEdges{})
}

// heldBits is the per-lock lattice: may (held on some path) and must
// (held on every path) bits. Join is may-OR / must-AND.
type heldBits uint8

const (
	mayHeld  heldBits = 1
	mustHeld heldBits = 2
)

type lockState map[string]heldBits

func cloneLockState(s lockState) lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func joinLockState(a, b lockState) lockState {
	out := make(lockState, len(a)+len(b))
	for k, ab := range a {
		nb := ab & mayHeld
		if bb, ok := b[k]; ok {
			nb |= bb & mayHeld
			if ab&mustHeld != 0 && bb&mustHeld != 0 {
				nb |= mustHeld
			}
		}
		out[k] = nb
	}
	for k, bb := range b {
		if _, ok := a[k]; !ok {
			out[k] = bb & mayHeld
		}
	}
	return out
}

func equalLockState(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// lockOp classifies one lock-relevant event inside a CFG node.
type lockOp int

const (
	opAcquire lockOp = iota
	opRelease
	opCall
	opChan // a channel send or receive; key describes it
)

type lockEvt struct {
	op     lockOp
	key    string // local key, " (read)" suffixed for RLock/RUnlock; opChan: "send"/"receive"
	global string // global key of the base mutex; "" if local-only
	method string // Lock/RLock/Unlock/RUnlock
	read   bool
	pos    token.Pos
	callee *types.Func // opCall only
}

// globalLockKey derives the declaration-level identity of a lock from
// its receiver expression: "pkg.Type.field" for struct fields,
// "pkg.var" for package-level variables, "pkg.Type" for embedded
// mutexes (receiver is the outer value), "" for purely local locks.
func globalLockKey(info *types.Info, recv ast.Expr) string {
	e := ast.Unparen(recv)
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.SelectorExpr:
		// Package-qualified package-level var: pkg.Mu.
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
		// Struct field: keyed by the (dereferenced) named type of x.
		if tv, ok := info.Types[e.X]; ok && tv.Type != nil {
			if n := namedOf(tv.Type); n != nil {
				return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + e.Sel.Name
			}
		}
		return ""
	}
	// Embedded mutex (s.Lock() with s a struct embedding sync.Mutex):
	// the receiver value itself names the lock.
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		if n := namedOf(tv.Type); n != nil && n.Obj().Pkg().Path() != "sync" {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name()
		}
	}
	return ""
}

// namedOf unwraps pointers and returns the named type with a packaged
// object, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return nil
	}
	return n
}

// orderedPair is one acquired-before observation with the source
// position of the acquisition (for reporting).
type orderedPair struct {
	before, after string
	pos           token.Pos
}

func runLockOrder(pass *analysis.Pass) (any, error) {
	cg := pass.ResultOf[CallGraph].(*CallGraphResult)
	flow := pass.ResultOf[CtrlFlow].(*CFGResult)
	r := newReporter(pass)
	info := pass.TypesInfo

	for _, f := range pass.Files {
		checkLockCopies(pass, r, f)
	}

	// --- Phase A: per-function may-acquire summaries (callgraph
	// closure, exported as LockSummary facts) ---

	acquiredBy := cg.closure(pass.Pkg, labelClosure{
		seed: func(node *CallNode) map[string]bool {
			if isTestFile(pass.Fset, node.Decl.Pos()) {
				return nil
			}
			set := map[string]bool{}
			ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
				if ev, ok := syncMethodEvt(info, n); ok && ev.op == opAcquire && ev.global != "" {
					set[ev.global] = true
				}
				return true
			})
			return set
		},
		imported: func(fn *types.Func) []string {
			var fact LockSummary
			pass.ImportObjectFact(fn, &fact)
			return fact.Acquires
		},
		export: func(fn *types.Func, keys []string) {
			pass.ExportObjectFact(fn, &LockSummary{Acquires: keys})
		},
	})
	// A function literal that is the operand of a defer runs at its
	// parent's exit, under whatever the parent still holds.
	deferredLits := map[*ast.FuncLit]bool{}
	for _, fc := range flow.Order {
		for _, def := range fc.G.Defers {
			if lit, ok := def.Call.Fun.(*ast.FuncLit); ok {
				deferredLits[lit] = true
			}
		}
	}
	checkChans := rankExchangePkgs[pass.Pkg.Name()]

	// --- Phase B: flow-sensitive per-function walk — held-lock states,
	// local diagnostics, acquired-before pairs ---

	var pairs []orderedPair
	seenPair := map[LockPair]bool{}
	addPair := func(before, after string, pos token.Pos) {
		if before == "" || after == "" || before == after {
			return
		}
		p := LockPair{before, after}
		if seenPair[p] {
			return
		}
		seenPair[p] = true
		pairs = append(pairs, orderedPair{before, after, pos})
	}

	for _, fc := range flow.Order {
		if isTestFile(pass.Fset, fc.Body.Pos()) {
			continue
		}
		// Events per CFG node, cached so the solver's repeated transfer
		// applications don't re-walk subtrees. globals maps a local base
		// key to its global key within this function only (the same
		// receiver text can name different types in other functions).
		evCache := map[ast.Node][]lockEvt{}
		globals := map[string]string{}
		events := func(n ast.Node) []lockEvt {
			if evts, ok := evCache[n]; ok {
				return evts
			}
			evts := nodeLockEvents(info, n)
			for _, ev := range evts {
				if ev.op != opCall && ev.global != "" {
					globals[trimReadSuffix(ev.key)] = ev.global
				}
			}
			evCache[n] = evts
			return evts
		}
		// Pre-scan: most functions touch no locks at all, and a function
		// with no acquire/release and no call into lock-acquiring code
		// holds nothing anywhere, so it can produce neither a diagnostic
		// nor a pair — skip the dataflow solve entirely.
		any := false
		for _, blk := range fc.G.Blocks {
			if !blk.Live || any {
				continue
			}
			for _, n := range blk.Nodes {
				for _, ev := range events(n) {
					if ev.op == opAcquire || ev.op == opRelease || ev.op == opCall && len(acquiredBy(ev.callee)) > 0 {
						any = true
						break
					}
				}
			}
		}
		if !any {
			continue
		}
		// Unlocks the function defers — directly or inside a deferred
		// literal — release at exit whatever a path still holds.
		deferred := map[string]bool{}
		for _, def := range fc.G.Defers {
			ast.Inspect(def.Call, func(n ast.Node) bool {
				if ev, ok := syncMethodEvt(info, n); ok && ev.op == opRelease {
					deferred[ev.key] = true
				}
				return true
			})
		}
		runsAtParentExit := fc.Lit != nil && deferredLits[fc.Lit]
		lastAcquire := map[string]token.Pos{}
		transfer := func(b *cfg.Block, in lockState) lockState {
			out := cloneLockState(in)
			for _, n := range b.Nodes {
				for _, ev := range events(n) {
					switch ev.op {
					case opAcquire:
						out[ev.key] = mayHeld | mustHeld
					case opRelease:
						delete(out, ev.key)
					}
				}
			}
			return out
		}
		sol := cfg.Forward(fc.G, lockState{}, transfer, joinLockState, equalLockState)

		for _, blk := range fc.G.Blocks {
			if !blk.Live {
				continue
			}
			st, ok := sol.In[blk]
			if !ok {
				continue
			}
			st = cloneLockState(st)
			for _, n := range blk.Nodes {
				for _, ev := range events(n) {
					base := trimReadSuffix(ev.key)
					switch ev.op {
					case opAcquire:
						if !ev.read {
							if st[ev.key]&mayHeld != 0 {
								r.reportf(ev.pos, "second %s.Lock() on a path where %s is already held (self-deadlock)", base, base)
							} else if st[base+" (read)"]&mayHeld != 0 {
								r.reportf(ev.pos, "%s.Lock() on a path where %s.RLock() is held (read-to-write upgrade self-deadlocks)", base, base)
							}
						} else if st[base]&mayHeld != 0 {
							r.reportf(ev.pos, "%s.RLock() on a path where %s.Lock() is held (self-deadlock)", base, base)
						}
						for _, h := range sortedStateKeys(st) {
							hb := trimReadSuffix(h)
							if hb == base {
								continue
							}
							addPair(globals[hb], ev.global, ev.pos)
						}
						st[ev.key] = mayHeld | mustHeld
						if ev.pos > lastAcquire[ev.key] {
							lastAcquire[ev.key] = ev.pos
						}
					case opRelease:
						switch {
						case runsAtParentExit:
							// held by the parent, whose exit state this solve does not see
						case st[ev.key]&mayHeld == 0:
							r.reportf(ev.pos, "%s.%s() but %s is not held on any path to this point", base, ev.method, base)
						case st[ev.key]&mustHeld == 0:
							r.reportf(ev.pos, "%s.%s() but %s is not held on every path to this point (lock missing on some branch)", base, ev.method, base)
						}
						delete(st, ev.key)
					case opCall:
						acq := sortedKeys(acquiredBy(ev.callee))
						if len(acq) == 0 {
							continue
						}
						for _, h := range sortedStateKeys(st) {
							hg := globals[trimReadSuffix(h)]
							for _, a := range acq {
								addPair(hg, a, ev.pos)
							}
						}
					case opChan:
						if !checkChans {
							continue
						}
						for _, h := range sortedStateKeys(st) {
							r.reportf(ev.pos, "channel %s while holding %s can deadlock the rank mesh; release the lock around channel operations", ev.key, h)
						}
					}
				}
				if _, ok := n.(*ast.ReturnStmt); ok {
					for _, h := range sortedStateKeys(st) {
						if !deferred[h] {
							r.reportf(n.Pos(), "return while %s is locked and no defer %s.Unlock() is pending; unlock on every path or defer the unlock",
								h, trimReadSuffix(h))
						}
					}
				}
			}
		}
		if exit := fc.G.Exit; exit.Live {
			atExit := sol.In[exit]
			for _, h := range sortedStateKeys(atExit) {
				if atExit[h]&mustHeld != 0 && !deferred[h] {
					r.reportf(lastAcquire[h], "%s.Lock() without a matching Unlock before the function ends", trimReadSuffix(h))
				}
			}
		}
	}

	// --- Phase C: the global lock-order graph (own pairs + imported
	// LockEdges), cycle detection, fact export ---

	adj := map[string]map[string]bool{}
	addEdge := func(before, after string) {
		if adj[before] == nil {
			adj[before] = map[string]bool{}
		}
		adj[before][after] = true
	}
	allPairs := map[LockPair]bool{}
	for _, p := range pairs {
		addEdge(p.before, p.after)
		allPairs[LockPair{p.before, p.after}] = true
	}
	for _, imp := range pass.Pkg.Imports() {
		var fact LockEdges
		if pass.ImportPackageFact(imp, &fact) {
			for _, p := range fact.Pairs {
				addEdge(p.Before, p.After)
				allPairs[p] = true
			}
		}
	}

	reported := map[LockPair]bool{}
	for _, p := range pairs {
		key := LockPair{p.before, p.after}
		if reported[key] {
			continue
		}
		if path := lockPath(adj, p.after, p.before); path != nil {
			reported[key] = true
			r.reportf(p.pos, "lock order inversion: %s acquired while %s is held, but the order %s is established elsewhere (AB/BA deadlock risk)",
				p.after, p.before, strings.Join(path, " → "))
		}
	}

	if len(allPairs) > 0 {
		out := make([]LockPair, 0, len(allPairs))
		for p := range allPairs {
			out = append(out, p)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Before != out[j].Before {
				return out[i].Before < out[j].Before
			}
			return out[i].After < out[j].After
		})
		pass.ExportPackageFact(&LockEdges{Pairs: out})
	}
	return nil, nil
}

var lockMethods = map[string]bool{"Lock": true, "RLock": true}
var unlockMethods = map[string]bool{"Unlock": true, "RUnlock": true}

func trimReadSuffix(key string) string {
	return strings.TrimSuffix(key, " (read)")
}

// syncMethodEvt classifies n as a sync.(RW)Mutex Lock/Unlock-family call.
func syncMethodEvt(info *types.Info, n ast.Node) (lockEvt, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return lockEvt{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvt{}, false
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockEvt{}, false
	}
	name := fn.Name()
	if !lockMethods[name] && !unlockMethods[name] {
		return lockEvt{}, false
	}
	read := name == "RLock" || name == "RUnlock"
	key := exprString(sel.X)
	if read {
		key += " (read)"
	}
	op := opAcquire
	if unlockMethods[name] {
		op = opRelease
	}
	return lockEvt{
		op:     op,
		key:    key,
		global: globalLockKey(info, sel.X),
		method: name,
		read:   read,
		pos:    call.Pos(),
	}, true
}

// nodeLockEvents extracts the lock events of one CFG node in source
// order: mutex acquire/release calls, calls to functions with lock
// summaries, and channel sends/receives. Function literals are their
// own CFGs; deferred and go'd calls do not execute at their
// registration point (a deferred unlock deliberately leaves the lock
// held — the nested acquisitions and channel operations really do
// happen under it).
func nodeLockEvents(info *types.Info, n ast.Node) []lockEvt {
	var evts []lockEvt
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			evts = append(evts, lockEvt{op: opChan, key: "send", pos: x.Pos()})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				evts = append(evts, lockEvt{op: opChan, key: "receive", pos: x.Pos()})
			}
		case *ast.CallExpr:
			if ev, ok := syncMethodEvt(info, x); ok {
				evts = append(evts, ev)
				return true
			}
			if fn := calleeFunc(info, x); fn != nil {
				evts = append(evts, lockEvt{op: opCall, pos: x.Pos(), callee: fn})
			}
		}
		return true
	})
	return evts
}

// sortedStateKeys returns the may-held keys of a lock state, sorted.
func sortedStateKeys(st lockState) []string {
	keys := make([]string, 0, len(st))
	for k, bits := range st {
		if bits&mayHeld != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// lockPath finds a path from → ... → to in the lock-order graph (BFS,
// deterministic neighbor order), returning the node sequence, or nil.
func lockPath(adj map[string]map[string]bool, from, to string) []string {
	if from == to || adj[from] == nil {
		return nil
	}
	prev := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range sortedKeys(adj[cur]) {
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = cur
			if next == to {
				var path []string
				for n := to; n != ""; n = prev[n] {
					path = append(path, n)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, next)
		}
	}
	return nil
}
