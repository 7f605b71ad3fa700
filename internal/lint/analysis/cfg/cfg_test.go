package cfg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"strings"
	"testing"
)

// buildFunc parses src as a file, finds the function named name, and
// builds its CFG.
func buildFunc(t *testing.T, src, name string) (*token.FileSet, *CFG) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fset, Build(fd.Body)
		}
	}
	t.Fatalf("no function %q in src", name)
	return nil, nil
}

// blocksByComment indexes live blocks by comment (first wins).
func blocksByComment(g *CFG) map[string][]*Block {
	m := map[string][]*Block{}
	for _, b := range g.Blocks {
		if b.Live {
			m[b.Comment] = append(m[b.Comment], b)
		}
	}
	return m
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

func TestIfElseDiamond(t *testing.T) {
	fset, g := buildFunc(t, `package p
func f(a bool) int {
	x := 0
	if a {
		x = 1
	} else {
		x = 2
	}
	return x
}`, "f")
	m := blocksByComment(g)
	then, els, done := m["if.then"][0], m["if.else"][0], m["if.done"][0]
	entry := g.Entry()
	if !hasEdge(entry, then) || !hasEdge(entry, els) {
		t.Errorf("entry must branch to then and else:\n%s", g.Format(fset))
	}
	if !hasEdge(then, done) || !hasEdge(els, done) {
		t.Errorf("both arms must rejoin at if.done:\n%s", g.Format(fset))
	}
	if hasEdge(entry, done) {
		t.Errorf("two-armed if must not edge cond→done directly:\n%s", g.Format(fset))
	}
	if !hasEdge(done, g.Exit) {
		t.Errorf("if.done (containing return) must edge to exit:\n%s", g.Format(fset))
	}
}

func TestLabeledBreakContinue(t *testing.T) {
	fset, g := buildFunc(t, `package p
func f(rows [][]int) int {
	total := 0
outer:
	for i := 0; i < len(rows); i++ {
		for _, v := range rows[i] {
			if v < 0 {
				break outer
			}
			if v == 0 {
				continue outer
			}
			total += v
		}
	}
	return total
}`, "f")
	m := blocksByComment(g)
	forDone := m["for.done"][0]
	forPost := m["for.post"][0]

	// The labeled break must leave BOTH loops: some block inside the
	// range body edges straight to the outer for.done.
	foundBreak, foundContinue := false, false
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		for _, n := range b.Nodes {
			br, ok := n.(*ast.BranchStmt)
			if !ok || br.Label == nil {
				continue
			}
			switch br.Tok {
			case token.BREAK:
				foundBreak = hasEdge(b, forDone)
			case token.CONTINUE:
				foundContinue = hasEdge(b, forPost)
			}
		}
	}
	if !foundBreak {
		t.Errorf("break outer must edge to the outer for.done:\n%s", g.Format(fset))
	}
	if !foundContinue {
		t.Errorf("continue outer must edge to the outer for.post:\n%s", g.Format(fset))
	}
}

func TestDeferInLoop(t *testing.T) {
	fset, g := buildFunc(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		defer println(i)
	}
}`, "f")
	if len(g.Defers) != 1 {
		t.Fatalf("want 1 recorded defer, got %d:\n%s", len(g.Defers), g.Format(fset))
	}
	// The defer's registration point is inside the loop body, and the
	// body must carry the back edge to the loop head.
	m := blocksByComment(g)
	body := m["for.body"][0]
	if len(body.Nodes) != 1 {
		t.Fatalf("loop body should hold exactly the defer, got %d nodes:\n%s", len(body.Nodes), g.Format(fset))
	}
	if _, ok := body.Nodes[0].(*ast.DeferStmt); !ok {
		t.Errorf("loop body node is %T, want *ast.DeferStmt", body.Nodes[0])
	}
	post := m["for.post"][0]
	head := m["for.loop"][0]
	if !hasEdge(body, post) || !hasEdge(post, head) {
		t.Errorf("loop must carry the back edge body→post→head:\n%s", g.Format(fset))
	}
}

func TestEarlyReturnUnderSwitch(t *testing.T) {
	fset, g := buildFunc(t, `package p
func f(k int) int {
	switch k {
	case 0:
		return 10
	case 1:
		k++
	default:
		return 30
	}
	return k
}`, "f")
	m := blocksByComment(g)
	cases := m["switch.case"]
	if len(cases) != 3 {
		t.Fatalf("want 3 case blocks, got %d:\n%s", len(cases), g.Format(fset))
	}
	done := m["switch.done"][0]
	// case 0 and default return directly: edge to exit, no edge to done.
	// case 1 falls out of the switch: edge to done.
	exitEdges, doneEdges := 0, 0
	for _, c := range cases {
		if hasEdge(c, g.Exit) {
			exitEdges++
		}
		if hasEdge(c, done) {
			doneEdges++
		}
	}
	if exitEdges != 2 || doneEdges != 1 {
		t.Errorf("want 2 returning cases and 1 falling out, got %d/%d:\n%s", exitEdges, doneEdges, g.Format(fset))
	}
	// With a default clause the header must NOT edge to switch.done.
	if hasEdge(g.Entry(), done) {
		t.Errorf("switch with default must not edge header→done:\n%s", g.Format(fset))
	}
}

func TestSwitchFallthrough(t *testing.T) {
	fset, g := buildFunc(t, `package p
func f(k int) int {
	n := 0
	switch k {
	case 0:
		n++
		fallthrough
	case 1:
		n += 2
	}
	return n
}`, "f")
	m := blocksByComment(g)
	cases := m["switch.case"]
	if len(cases) != 2 {
		t.Fatalf("want 2 case blocks, got %d", len(cases))
	}
	if !hasEdge(cases[0], cases[1]) {
		t.Errorf("fallthrough must edge case 0 → case 1:\n%s", g.Format(fset))
	}
	// No default: the header keeps its edge to switch.done.
	if !hasEdge(g.Entry(), m["switch.done"][0]) {
		t.Errorf("defaultless switch must edge header→done:\n%s", g.Format(fset))
	}
}

func TestPanicPseudoEdge(t *testing.T) {
	fset, g := buildFunc(t, `package p
func f(ok bool) int {
	if !ok {
		panic("bad")
	}
	return 1
}`, "f")
	m := blocksByComment(g)
	then := m["if.then"][0]
	if !hasEdge(then, g.Exit) {
		t.Errorf("panic must pseudo-edge to exit:\n%s", g.Format(fset))
	}
	if hasEdge(then, m["if.done"][0]) {
		t.Errorf("panic block must not fall through to if.done:\n%s", g.Format(fset))
	}
}

func TestPanicRecoverDefer(t *testing.T) {
	// recover lives in a deferred closure: the defer is recorded, the
	// panic edges to exit, and the statement after the panic is dead.
	fset, g := buildFunc(t, `package p
func f() (err int) {
	defer func() {
		recover()
	}()
	panic("boom")
	err = 2
	return err
}`, "f")
	if len(g.Defers) != 1 {
		t.Fatalf("want the recover defer recorded, got %d", len(g.Defers))
	}
	dead := false
	for _, b := range g.Blocks {
		if b.Live {
			continue
		}
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "err" {
					dead = true
				}
			}
		}
	}
	if !dead {
		t.Errorf("assignment after panic must land in a dead block:\n%s", g.Format(fset))
	}
}

func TestGotoForwardAndBack(t *testing.T) {
	fset, g := buildFunc(t, `package p
func f(n int) int {
retry:
	n--
	if n > 0 {
		goto retry
	}
	goto done
done:
	return n
}`, "f")
	m := blocksByComment(g)
	retry := m["label.retry"][0]
	done := m["label.done"][0]
	backEdge, fwdEdge := false, false
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		if b != retry && hasEdge(b, retry) && b.Comment == "if.then" {
			backEdge = true
		}
		if hasEdge(b, done) && b.Comment != "exit" && b != done {
			fwdEdge = true
		}
	}
	if !backEdge {
		t.Errorf("goto retry must edge back to the label block:\n%s", g.Format(fset))
	}
	if !fwdEdge {
		t.Errorf("goto done must edge forward to the label block:\n%s", g.Format(fset))
	}
	if !hasEdge(done, g.Exit) {
		t.Errorf("labeled return must edge to exit:\n%s", g.Format(fset))
	}
}

func TestSelectClauses(t *testing.T) {
	fset, g := buildFunc(t, `package p
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case b <- 1:
	}
	return 0
}`, "f")
	m := blocksByComment(g)
	comms := m["select.comm"]
	if len(comms) != 2 {
		t.Fatalf("want 2 comm blocks, got %d:\n%s", len(comms), g.Format(fset))
	}
	done := m["select.done"][0]
	if !hasEdge(g.Entry(), comms[0]) || !hasEdge(g.Entry(), comms[1]) {
		t.Errorf("select header must branch to every comm clause:\n%s", g.Format(fset))
	}
	if hasEdge(g.Entry(), done) {
		t.Errorf("select must not edge header→done (it blocks until a case fires):\n%s", g.Format(fset))
	}
}

// --- solver tests ---

// TestForwardMustReach checks a forward must-analysis over the diamond:
// "x is definitely assigned" merges with AND.
func TestForwardMustReach(t *testing.T) {
	_, g := buildFunc(t, `package p
func f(a bool) int {
	var x int
	if a {
		x = 1
	}
	return x
}`, "f")
	// State: set of idents assigned on every path (here: just track a
	// bool for "x assigned").
	transfer := func(b *Block, in bool) bool {
		out := in
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "x" {
					out = true
				}
			}
		}
		return out
	}
	join := func(a, b bool) bool { return a && b }
	eq := func(a, b bool) bool { return a == b }
	sol := Forward(g, false, transfer, join, eq)
	m := blocksByComment(g)
	then := m["if.then"][0]
	if sol[then] {
		t.Error("x must not be definitely-assigned entering if.then")
	}
	if !transfer(then, sol[then]) {
		t.Error("x must be assigned leaving if.then")
	}
	if sol[m["if.done"][0]] {
		t.Error("x is not assigned on every path into if.done (the var decl does not count)")
	}
}

// TestBackwardLiveness checks a backward must-analysis over a loop:
// "v is read before being overwritten on every path to exit".
func TestBackwardLiveness(t *testing.T) {
	_, g := buildFunc(t, `package p
func f(n int) int {
	v := 0
	for i := 0; i < n; i++ {
		v = i
	}
	return v
}`, "f")
	reads := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && id.Name == "v" {
				found = true
			}
			return true
		})
		return found
	}
	// Backward: In = transfer(block, Out); scan nodes in reverse.
	transfer := func(b *Block, out bool) bool {
		state := out
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			n := b.Nodes[i]
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "v" {
					state = false // overwritten before any later read
					continue
				}
			}
			if reads(n) {
				state = true
			}
		}
		return state
	}
	join := func(a, b bool) bool { return a && b }
	eq := func(a, b bool) bool { return a == b }
	sol := Backward(g, false, transfer, join, eq)
	m := blocksByComment(g)
	// Leaving the loop body, v was just written and the return reads
	// it on the only path out: v is "will be read" at body end...
	// no: out of the body flows to for.post → head → {body, done};
	// the body path overwrites v first. Join is AND, so at body Out
	// the value is false (the body path kills it before reading).
	if sol[m["for.body"][0]] {
		t.Error("v at body end is not read-before-write on every path (loop re-entry overwrites it)")
	}
	// At the loop head's exit side, the done path reads v in the
	// return: on the done edge it is live; but the body edge kills it.
	if done := m["for.done"][0]; !transfer(done, sol[done]) {
		t.Error("v entering for.done must be read before exit (the return)")
	}
	if !strings.Contains(g.Format(token.NewFileSet()), "for.body") {
		t.Error("Format must name loop blocks")
	}
}

// Format renders the CFG for test failures: one line per block with
// its comment, rendered nodes, and successor indices.
func (g *CFG) Format(fset *token.FileSet) string {
	var buf bytes.Buffer
	for _, blk := range g.Blocks {
		live := ""
		if !blk.Live {
			live = " (dead)"
		}
		fmt.Fprintf(&buf, "block %d (%s)%s:\n", blk.Index, blk.Comment, live)
		for _, n := range blk.Nodes {
			var nb bytes.Buffer
			printer.Fprint(&nb, fset, n)
			line := nb.String()
			if i := bytes.IndexByte(nb.Bytes(), '\n'); i >= 0 {
				line = string(nb.Bytes()[:i]) + " ..."
			}
			fmt.Fprintf(&buf, "\t%s\n", line)
		}
		if len(blk.Succs) > 0 {
			fmt.Fprintf(&buf, "\tsuccs:")
			for _, s := range blk.Succs {
				fmt.Fprintf(&buf, " %d", s.Index)
			}
			fmt.Fprintln(&buf)
		}
	}
	return buf.String()
}
