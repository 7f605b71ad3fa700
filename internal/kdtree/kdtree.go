// Package kdtree builds balanced k-d trees over particle positions.
//
// The paper's FOF halo finder works "using a serial algorithm which
// constructs and then recursively traverses a balanced k-d tree ... At
// higher levels of the tree, bounding boxes which define the space covered
// by the subtree rooted at a node are used to reduce the number of
// particle-to-particle distance comparisons" (§3.3.1). This tree provides
// the balanced median-split construction, per-node bounding boxes, the
// (optionally periodic) self-join the halo finder is, and the fixed-radius
// queries the center and SO finders build on.
package kdtree

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/dparallel"
	"repro/internal/periodic"
)

// Above splitCutoff points, build makes a node's two halves concurrently.
const splitCutoff = 1 << 14

// Tree is a balanced k-d tree over a fixed set of points. Points are
// addressed by their index in the X/Y/Z arrays handed to Build.
type Tree struct {
	x, y, z []float64
	// perm holds point indices; each node owns a contiguous span of perm.
	perm  []int
	nodes []node
	// Period > 0 enables minimum-image distances with that box side on all
	// axes; 0 means open (non-periodic) space — the mode used on rank-local
	// data whose overload regions already materialize the periodic copies.
	Period float64
	// LeafSize is the maximum number of points in a leaf.
	LeafSize int
}

// node is one k-d tree node covering perm[lo:hi].
type node struct {
	lo, hi      int // span in perm
	left, right int // child node indices, -1 for leaves
	// Bounding box of the points in the span.
	minB, maxB [3]float64
}

// Build constructs a balanced tree over the given coordinates. x, y and z
// must have equal length. period > 0 makes all distance queries periodic
// with that box side. leafSize <= 0 selects a default of 16.
func Build(x, y, z []float64, period float64, leafSize int) (*Tree, error) {
	n := len(x)
	if len(y) != n || len(z) != n {
		return nil, fmt.Errorf("kdtree: coordinate lengths differ: %d/%d/%d", n, len(y), len(z))
	}
	if period < 0 {
		return nil, fmt.Errorf("kdtree: period %g must be >= 0", period)
	}
	if leafSize <= 0 {
		leafSize = 16
	}
	t := &Tree{x: x, y: y, z: z, Period: period, LeafSize: leafSize}
	t.perm = make([]int, n)
	for i := range t.perm {
		t.perm[i] = i
	}
	if n > 0 {
		t.nodes = make([]node, nodeCount(n, leafSize))
		t.build(0, 0, n, 0)
	}
	return t, nil
}

// nodeCount returns the number of nodes build creates over n points.
func nodeCount(n, leafSize int) int {
	if n <= leafSize {
		return 1
	}
	return 1 + nodeCount(n/2, leafSize) + nodeCount(n-n/2, leafSize)
}

// build fills node idx and the rest of the subtree over perm[lo:hi],
// splitting on axis, and returns the index one past that subtree. Nodes
// are in pre-order: the left child follows its parent, the right child
// follows the left subtree, whose size nodeCount knows in advance.
func (t *Tree) build(idx, lo, hi, axis int) int {
	nb := &t.nodes[idx]
	*nb = node{lo: lo, hi: hi, left: -1, right: -1}
	span := t.perm[lo:hi]
	coords := [3][]float64{t.x, t.y, t.z}
	if hi-lo <= t.LeafSize {
		for a, c := range coords {
			minC, maxC := math.Inf(1), math.Inf(-1)
			for _, p := range span {
				if c[p] < minC {
					minC = c[p]
				}
				if c[p] > maxC {
					maxC = c[p]
				}
			}
			nb.minB[a], nb.maxB[a] = minC, maxC
		}
		return idx + 1
	}
	// Median split on the given axis (balanced construction).
	mid := len(span) / 2
	nthElement(span, mid, coords[axis])
	next := (axis + 1) % 3
	nb.left = idx + 1
	var end int
	if hi-lo <= splitCutoff {
		nb.right = t.build(nb.left, lo, lo+mid, next)
		end = t.build(nb.right, lo+mid, hi, next)
	} else {
		// The halves own disjoint spans of perm and nodes: build them at once.
		nb.right = nb.left + nodeCount(mid, t.LeafSize)
		end = nb.right + nodeCount(hi-lo-mid, t.LeafSize)
		dparallel.Parallel{MinChunk: 1}.ForRange(2, func(first, last int) {
			for half := first; half < last; half++ {
				if half == 0 {
					t.build(nb.left, lo, lo+mid, next)
				} else {
					t.build(nb.right, lo+mid, hi, next)
				}
			}
		})
	}
	// The box of a span is exactly the hull of its halves' boxes. Plain
	// comparisons, like the leaf scan, so a NaN coordinate never enters one.
	l, r := &t.nodes[nb.left], &t.nodes[nb.right]
	for a := 0; a < 3; a++ {
		nb.minB[a], nb.maxB[a] = l.minB[a], l.maxB[a]
		if r.minB[a] < nb.minB[a] {
			nb.minB[a] = r.minB[a]
		}
		if r.maxB[a] > nb.maxB[a] {
			nb.maxB[a] = r.maxB[a]
		}
	}
	return end
}

// nthElement partially sorts span by the coordinate c[span[i]] so span[k]
// holds the element that would be at position k in sorted order (a
// quickselect).
func nthElement(span []int, k int, c []float64) {
	lo, hi := 0, len(span)-1
	for lo < hi {
		p := partition(span, lo, hi, c)
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

func partition(span []int, lo, hi int, c []float64) int {
	// Median-of-three pivot keeps the lattice-like inputs from degrading.
	mid := (lo + hi) / 2
	if c[span[mid]] < c[span[lo]] {
		span[mid], span[lo] = span[lo], span[mid]
	}
	if c[span[hi]] < c[span[lo]] {
		span[hi], span[lo] = span[lo], span[hi]
	}
	if c[span[hi]] < c[span[mid]] {
		span[hi], span[mid] = span[mid], span[hi]
	}
	span[mid], span[hi] = span[hi], span[mid]
	pivot := c[span[hi]]
	// Lomuto's swaps, as selects instead of a branch on a coin flip: the
	// compiler emits CMOV/SETcc, and span ends up exactly as with the branch.
	i := lo
	for j := lo; j < hi; j++ {
		v, w := span[i], span[j]
		lt := c[w] < pivot
		a, b := v, w
		if lt {
			a, b = w, v
		}
		span[i], span[j] = a, b
		inc := 0
		if lt {
			inc = 1
		}
		i += inc
	}
	span[i], span[hi] = span[hi], span[i]
	return i
}

// axisGap returns the distance between the intervals [aLo, aHi] and
// [bLo, bHi] along one axis, between their nearest images when period > 0.
func axisGap(aLo, aHi, bLo, bHi, period float64) float64 {
	g := axisGapOpen(aLo, aHi, bLo, bHi)
	if period > 0 && g > 0 { // no image is nearer than an overlap
		if s := axisGapOpen(aLo+period, aHi+period, bLo, bHi); s < g {
			g = s
		}
		if s := axisGapOpen(aLo-period, aHi-period, bLo, bHi); s < g {
			g = s
		}
	}
	return g
}

// Dist2 returns the squared (minimum-image when periodic) distance between
// point i and the coordinates (x, y, z).
func (t *Tree) Dist2(i int, x, y, z float64) float64 {
	dx, dy, dz := t.x[i]-x, t.y[i]-y, t.z[i]-z
	if p := t.Period; p > 0 {
		dx, dy, dz = periodic.MinImage(dx, p), periodic.MinImage(dy, p), periodic.MinImage(dz, p)
	}
	return dx*dx + dy*dy + dz*dz
}

// boxDist2 returns the squared distance from (x,y,z) to node nb's bounding
// box (0 when inside), minimum image when period > 0. The open gaps inline;
// most calls, a join's leaf filter below the half-period hull, need no more.
func boxDist2(nb *node, x, y, z, period float64) float64 {
	dx := axisGapOpen(x, x, nb.minB[0], nb.maxB[0])
	dy := axisGapOpen(y, y, nb.minB[1], nb.maxB[1])
	dz := axisGapOpen(z, z, nb.minB[2], nb.maxB[2])
	if period > 0 {
		dx = axisGap(x, x, nb.minB[0], nb.maxB[0], period)
		dy = axisGap(y, y, nb.minB[1], nb.maxB[1], period)
		dz = axisGap(z, z, nb.minB[2], nb.maxB[2], period)
	}
	return dx*dx + dy*dy + dz*dz
}

// VisitWithin calls visit(j) for every point j with distance <= r from
// (x, y, z), including the query point itself when it is in the tree.
// visit returning false stops the traversal early.
func (t *Tree) VisitWithin(x, y, z, r float64, visit func(j int) bool) {
	if len(t.nodes) == 0 {
		return
	}
	t.visitWithin(0, x, y, z, r*r, t.pad2(r), visit)
}

func (t *Tree) visitWithin(ni int, x, y, z, r2, near2 float64, visit func(j int) bool) bool {
	nb := &t.nodes[ni]
	if boxDist2(nb, x, y, z, t.Period) > near2 {
		return true
	}
	if nb.left < 0 {
		for _, j := range t.perm[nb.lo:nb.hi] {
			if t.Dist2(j, x, y, z) <= r2 {
				if !visit(j) {
					return false
				}
			}
		}
		return true
	}
	if !t.visitWithin(nb.left, x, y, z, r2, near2, visit) {
		return false
	}
	return t.visitWithin(nb.right, x, y, z, r2, near2, visit)
}

// pad2 is the squared radius the box prunes compare against: a box gap
// can exceed a pair's Dist2 by an ulp of Period across a face (c ± Period
// rounds apart), so it pads r. Dist2 <= r² still decides every pair.
func (t *Tree) pad2(r float64) float64 {
	near := math.Abs(r)*(1+0x1p-40) + t.Period*0x1p-40
	return near * near
}

// PairsWithin reports every unordered pair of distinct points at distance
// <= r exactly once, by one self-join of the tree instead of one descent
// per point — the recursive traversal of §3.3.1, where "bounding boxes
// which define the space covered by the subtree rooted at a node are used
// to reduce the number of particle-to-particle distance comparisons,
// allowing whole subtrees to be merged into a halo or excluded from a halo
// at once". Two subtrees whose boxes lie farther apart than r are skipped;
// when every point of one provably lies within r of every point of the
// other, bulk(a, b) receives both index spans and no distances are
// computed (b is nil when a's points are all within r of each other). All
// other pairs go through Dist2 and the in-range ones to pair. A nil bulk
// turns the bulk shortcut off: the same pairs then all reach pair.
//
// The join's top levels run as dparallel tasks whose logs are replayed in
// task order, so the callbacks run on the caller, in the serial order.
func (t *Tree) PairsWithin(r float64, bulk func(a, b []int), pair func(i, j int)) {
	if len(t.nodes) == 0 {
		return
	}
	j := joins.get()
	j.t, j.r2, j.near2, j.bulk, j.n = t, r*r, t.pad2(r), bulk != nil, 0
	j.unroll(0, joinDepth)
	dparallel.Parallel{MinChunk: 1}.ForRange(j.n, j.runTasks)
	for c := range j.logs[:j.n] {
		ev := j.logs[c].ev
		for k := 0; k < len(ev); k += 2 {
			if a, b := ev[k], ev[k+1]; a >= 0 {
				pair(a, b)
			} else if b < 0 {
				bulk(t.span(^a), nil)
			} else {
				bulk(t.span(^a), t.span(b))
			}
		}
		j.logs[c].ev = ev[:0]
	}
	j.t = nil // a kept join must not keep the tree alive
	joins.put(j)
}

// joinDepth is how many levels of the self-join become tasks: ≤ 2⁶−1 = 63.
const joinDepth = 5

// join is one PairsWithin call: its tasks in visit order, {a, -1} for
// self(a) and {a, b} for cross(a, b), and a log per chunk at its first
// task: a pair as i, j, a bulk call as ^a, b (b = -1: a's own span).
type join struct {
	t         *Tree
	r2, near2 float64
	bulk      bool
	n         int
	tasks     [2<<joinDepth - 1][2]int
	logs      [2<<joinDepth - 1]joinLog
}

type joinLog struct{ ev, near []int } // near: leaf filter scratch

// joins keeps joins and their logs' buffers for later calls; 16 covers the
// calls in flight at once here. It is last in, first out, so a serial
// caller gets back the join whose buffers it grew last; in any other order
// it would cycle through every join that overlapping calls made, growing
// each one's buffers in turn, and its allocations would depend on how
// earlier calls were scheduled.
var joins = &joinStack{free: make([]*join, 0, 16)}

type joinStack struct {
	mu   sync.Mutex
	free []*join
}

func (s *joinStack) get() *join {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return new(join)
	}
	j := s.free[n-1]
	s.free = s.free[:n-1]
	return j
}

func (s *joinStack) put(j *join) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) < cap(s.free) {
		s.free = append(s.free, j)
	}
}

func (t *Tree) span(a int) []int { return t.perm[t.nodes[a].lo:t.nodes[a].hi] }

// unroll lists self(a)'s tasks depth levels down, in joinSelf's order.
func (j *join) unroll(a, depth int) {
	task := [2]int{a, -1}
	if na := &j.t.nodes[a]; depth > 0 && na.left >= 0 && !(j.bulk && maxSep2(na, na) <= j.r2) {
		j.unroll(na.left, depth-1)
		j.unroll(na.right, depth-1)
		task = [2]int{na.left, na.right}
	}
	j.tasks[j.n] = task
	j.n++
}

func (j *join) runTasks(lo, hi int) {
	lg := &j.logs[lo]
	for _, tk := range j.tasks[lo:hi] {
		if tk[1] < 0 {
			j.joinSelf(tk[0], lg)
		} else {
			j.joinCross(tk[0], tk[1], j.t.Period, lg)
		}
	}
}

// joinSelf logs the pairs inside node a's span.
func (j *join) joinSelf(a int, lg *joinLog) {
	na := &j.t.nodes[a]
	switch {
	case j.bulk && maxSep2(na, na) <= j.r2:
		lg.ev = append(lg.ev, ^a, -1)
	case na.left < 0:
		span, p := j.t.span(a), linkPeriod(na, na, j.t.Period)
		for k, i := range span {
			j.joinPoint(i, span[k+1:], p, lg)
		}
	default:
		j.joinSelf(na.left, lg)
		j.joinSelf(na.right, lg)
		j.joinCross(na.left, na.right, j.t.Period, lg)
	}
}

// joinCross logs the pairs with one point in node a's span and one in b's,
// minimum image when period > 0. Child boxes lie inside their parents', so
// once linkPeriod opens a pair it stays open all the way down.
func (j *join) joinCross(a, b int, period float64, lg *joinLog) {
	t := j.t
	na, nb := &t.nodes[a], &t.nodes[b]
	p := linkPeriod(na, nb, period)
	if boxGap2(na, nb, p) > j.near2 {
		return
	}
	switch {
	case j.bulk && maxSep2(na, nb) <= j.r2:
		lg.ev = append(lg.ev, ^a, b)
	case na.left < 0 && nb.left < 0:
		// Only points near the other leaf's box can link; order is kept.
		lg.near = lg.near[:0]
		for _, k := range t.span(b) {
			if boxDist2(na, t.x[k], t.y[k], t.z[k], p) <= j.near2 {
				lg.near = append(lg.near, k)
			}
		}
		for _, i := range t.span(a) {
			if len(lg.near) > 0 && boxDist2(nb, t.x[i], t.y[i], t.z[i], p) <= j.near2 {
				j.joinPoint(i, lg.near, p, lg)
			}
		}
	case nb.left < 0 || (na.left >= 0 && na.hi-na.lo >= nb.hi-nb.lo):
		j.joinCross(na.left, b, p, lg)
		j.joinCross(na.right, b, p, lg)
	default:
		j.joinCross(a, nb.left, p, lg)
		j.joinCross(a, nb.right, p, lg)
	}
}

// linkPeriod returns 0 (open space) when the hull of na's and nb's boxes
// spans less than half of period on every axis, and period otherwise.
// Rounding is monotone, so no difference within such a hull exceeds its
// span: every MinImage(d) is d + 0, and no image gap beats the open one.
func linkPeriod(na, nb *node, period float64) float64 {
	for a := 0; a < 3 && period > 0; a++ {
		if 2*(max(na.maxB[a], nb.maxB[a])-min(na.minB[a], nb.minB[a])) >= period {
			return period
		}
	}
	return 0
}

// joinPoint logs the points of others within the radius of point i,
// minimum image when period > 0.
func (j *join) joinPoint(i int, others []int, period float64, lg *joinLog) {
	xs, ys, zs, r2 := j.t.x, j.t.y, j.t.z, j.r2
	x, y, z := xs[i], ys[i], zs[i]
	for _, k := range others {
		dx, dy, dz := xs[k]-x, ys[k]-y, zs[k]-z
		if period > 0 {
			dx, dy, dz = periodic.MinImage(dx, period), periodic.MinImage(dy, period), periodic.MinImage(dz, period)
		}
		if dx*dx+dy*dy+dz*dz <= r2 {
			lg.ev = append(lg.ev, i, k)
		}
	}
}

// boxGap2 returns the squared distance between the boxes of na and nb (0
// when they overlap): no point of na is nearer to nb's box by boxDist2
// than this, so pruning on it skips nothing a descent from that point
// would have reached.
func boxGap2(na, nb *node, period float64) float64 {
	g2 := 0.0
	for a := 0; a < 3; a++ {
		g := axisGap(na.minB[a], na.maxB[a], nb.minB[a], nb.maxB[a], period)
		g2 += g * g
	}
	return g2
}

// axisGapOpen returns the distance between the intervals [aLo, aHi] and
// [bLo, bHi] along one axis in open space, 0 when they overlap.
func axisGapOpen(aLo, aHi, bLo, bHi float64) float64 {
	switch {
	case aHi < bLo:
		return bLo - aHi
	case aLo > bHi:
		return aLo - bHi
	default:
		return 0
	}
}

// maxSep2 returns (an upper bound on) the squared distance between the
// farthest two points of na's and nb's boxes, computed without periodic
// wrapping. Open-space distance upper-bounds the periodic minimum-image
// distance, so the bound remains valid for periodic trees. maxSep2(n, n) is
// n's squared diagonal.
func maxSep2(na, nb *node) float64 {
	d2 := 0.0
	for a := 0; a < 3; a++ {
		d := na.maxB[a] - nb.minB[a]
		if e := nb.maxB[a] - na.minB[a]; e > d {
			d = e
		}
		d2 += d * d
	}
	return d2
}

// Within returns the indices of all points with distance <= r from
// (x, y, z), sorted ascending.
func (t *Tree) Within(x, y, z, r float64) []int {
	var out []int
	t.VisitWithin(x, y, z, r, func(j int) bool {
		out = append(out, j)
		return true
	})
	sort.Ints(out)
	return out
}

// TraverseNodes walks the tree from the root. visit is called with each
// node's bounding box, its member index span (aliasing internal storage;
// do not modify), and whether the node is a leaf. Returning true descends
// into the node's children; leaves never descend. The A* center finder
// uses this to build Barnes-Hut-style admissible potential bounds.
func (t *Tree) TraverseNodes(visit func(minB, maxB [3]float64, members []int, isLeaf bool) bool) {
	if len(t.nodes) == 0 {
		return
	}
	t.traverseNodes(0, visit)
}

func (t *Tree) traverseNodes(ni int, visit func(minB, maxB [3]float64, members []int, isLeaf bool) bool) {
	nb := &t.nodes[ni]
	isLeaf := nb.left < 0
	if !visit(nb.minB, nb.maxB, t.perm[nb.lo:nb.hi], isLeaf) || isLeaf {
		return
	}
	t.traverseNodes(nb.left, visit)
	t.traverseNodes(nb.right, visit)
}
