// Package kdtree builds balanced k-d trees over particle positions.
//
// The paper's FOF halo finder works "using a serial algorithm which
// constructs and then recursively traverses a balanced k-d tree ... At
// higher levels of the tree, bounding boxes which define the space covered
// by the subtree rooted at a node are used to reduce the number of
// particle-to-particle distance comparisons" (§3.3.1). This tree provides
// the balanced median-split construction, per-node bounding boxes, the
// (optionally periodic) self-join the halo finder is, and the fixed-radius
// and k-nearest queries the center and SO finders build on.
package kdtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/periodic"
)

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
		t.nodes = make([]node, 0, nodeCount(n, leafSize))
		t.build(0, n, 0)
	}
	return t, nil
}

// N returns the number of points in the tree.
func (t *Tree) N() int { return len(t.x) }

// nodeCount returns the number of nodes build creates over n points.
func nodeCount(n, leafSize int) int {
	if n <= leafSize {
		return 1
	}
	return 1 + nodeCount(n/2, leafSize) + nodeCount(n-n/2, leafSize)
}

// build creates the subtree over perm[lo:hi] splitting on axis, returning
// its node index. Nodes are numbered in pre-order.
func (t *Tree) build(lo, hi, axis int) int {
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{lo: lo, hi: hi, left: -1, right: -1})
	nb := &t.nodes[idx] // stable: Build sized nodes for the whole tree
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
		return idx
	}
	// Median split on the given axis (balanced construction).
	mid := len(span) / 2
	nthElement(span, mid, coords[axis])
	next := (axis + 1) % 3
	nb.left = t.build(lo, lo+mid, next)
	nb.right = t.build(lo+mid, hi, next)
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
	return idx
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
	i := lo
	for j := lo; j < hi; j++ {
		if c[span[j]] < pivot {
			span[i], span[j] = span[j], span[i]
			i++
		}
	}
	span[i], span[hi] = span[hi], span[i]
	return i
}

// axisDist returns the distance from coordinate c to the interval
// [lo, hi] along one axis, honouring periodicity.
func (t *Tree) axisDist(c, lo, hi float64) float64 {
	d := axisDistOpen(c, lo, hi)
	if t.Period > 0 {
		if d2 := axisDistOpen(c+t.Period, lo, hi); d2 < d {
			d = d2
		}
		if d2 := axisDistOpen(c-t.Period, lo, hi); d2 < d {
			d = d2
		}
	}
	return d
}

func axisDistOpen(c, lo, hi float64) float64 { return axisGapOpen(c, c, lo, hi) }

// Dist2 returns the squared (minimum-image when periodic) distance between
// point i and the coordinates (x, y, z).
func (t *Tree) Dist2(i int, x, y, z float64) float64 {
	dx := t.delta(t.x[i] - x)
	dy := t.delta(t.y[i] - y)
	dz := t.delta(t.z[i] - z)
	return dx*dx + dy*dy + dz*dz
}

func (t *Tree) delta(d float64) float64 {
	if t.Period > 0 {
		return periodic.MinImage(d, t.Period)
	}
	return d
}

// boxDist2 returns the squared distance from (x,y,z) to node nb's bounding
// box (0 when inside).
func (t *Tree) boxDist2(nb *node, x, y, z float64) float64 {
	dx := t.axisDist(x, nb.minB[0], nb.maxB[0])
	dy := t.axisDist(y, nb.minB[1], nb.maxB[1])
	dz := t.axisDist(z, nb.minB[2], nb.maxB[2])
	return dx*dx + dy*dy + dz*dz
}

// VisitWithin calls visit(j) for every point j with distance <= r from
// (x, y, z), including the query point itself when it is in the tree.
// visit returning false stops the traversal early.
func (t *Tree) VisitWithin(x, y, z, r float64, visit func(j int) bool) {
	if len(t.nodes) == 0 {
		return
	}
	r2 := r * r
	t.visitWithin(0, x, y, z, r, r2, visit)
}

func (t *Tree) visitWithin(ni int, x, y, z, r, r2 float64, visit func(j int) bool) bool {
	nb := &t.nodes[ni]
	if t.boxDist2(nb, x, y, z) > r2 {
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
	if !t.visitWithin(nb.left, x, y, z, r, r2, visit) {
		return false
	}
	return t.visitWithin(nb.right, x, y, z, r, r2, visit)
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
func (t *Tree) PairsWithin(r float64, bulk func(a, b []int), pair func(i, j int)) {
	if len(t.nodes) > 0 {
		t.joinSelf(&t.nodes[0], r*r, bulk, pair)
	}
}

// joinSelf reports the pairs inside na's span.
func (t *Tree) joinSelf(na *node, r2 float64, bulk func(a, b []int), pair func(i, j int)) {
	span := t.perm[na.lo:na.hi]
	switch {
	case bulk != nil && maxSep2(na, na) <= r2:
		bulk(span, nil)
	case na.left < 0:
		for k, i := range span {
			t.joinPoint(i, span[k+1:], r2, pair)
		}
	default:
		l, r := &t.nodes[na.left], &t.nodes[na.right]
		t.joinSelf(l, r2, bulk, pair)
		t.joinSelf(r, r2, bulk, pair)
		t.joinCross(l, r, r2, bulk, pair)
	}
}

// joinCross reports the pairs with one point in na's span and one in nb's.
func (t *Tree) joinCross(na, nb *node, r2 float64, bulk func(a, b []int), pair func(i, j int)) {
	if t.boxGap2(na, nb) > r2 {
		return
	}
	switch {
	case bulk != nil && maxSep2(na, nb) <= r2:
		bulk(t.perm[na.lo:na.hi], t.perm[nb.lo:nb.hi])
	case na.left < 0 && nb.left < 0:
		for _, i := range t.perm[na.lo:na.hi] {
			t.joinPoint(i, t.perm[nb.lo:nb.hi], r2, pair)
		}
	case nb.left < 0 || (na.left >= 0 && na.hi-na.lo >= nb.hi-nb.lo):
		t.joinCross(&t.nodes[na.left], nb, r2, bulk, pair)
		t.joinCross(&t.nodes[na.right], nb, r2, bulk, pair)
	default:
		t.joinCross(na, &t.nodes[nb.left], r2, bulk, pair)
		t.joinCross(na, &t.nodes[nb.right], r2, bulk, pair)
	}
}

// joinPoint reports the points of others within the radius of point i.
func (t *Tree) joinPoint(i int, others []int, r2 float64, pair func(i, j int)) {
	xs, ys, zs, period := t.x, t.y, t.z, t.Period
	x, y, z := xs[i], ys[i], zs[i]
	for _, j := range others {
		dx, dy, dz := xs[j]-x, ys[j]-y, zs[j]-z
		if period > 0 {
			dx, dy, dz = periodic.MinImage(dx, period), periodic.MinImage(dy, period), periodic.MinImage(dz, period)
		}
		if dx*dx+dy*dy+dz*dz <= r2 {
			pair(i, j)
		}
	}
}

// boxGap2 returns the squared distance between the boxes of na and nb (0
// when they overlap), per axis in the shape of axisDist: no point of na is
// nearer to nb's box by boxDist2 than this, so pruning on it skips nothing
// a descent from that point would have reached.
func (t *Tree) boxGap2(na, nb *node) float64 {
	g2 := 0.0
	for a := 0; a < 3; a++ {
		lo, hi := na.minB[a], na.maxB[a]
		g := axisGapOpen(lo, hi, nb.minB[a], nb.maxB[a])
		if t.Period > 0 {
			if s := axisGapOpen(lo+t.Period, hi+t.Period, nb.minB[a], nb.maxB[a]); s < g {
				g = s
			}
			if s := axisGapOpen(lo-t.Period, hi-t.Period, nb.minB[a], nb.maxB[a]); s < g {
				g = s
			}
		}
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

// Leaves returns the point indices of every leaf node, one slice per leaf.
// The returned slices alias the tree's internal permutation and must not be
// modified. Leaf grouping gives callers a spatially coherent O(n/LeafSize)
// partition — the A* center finder's optimistic heuristic aggregates mass
// over exactly these groups.
func (t *Tree) Leaves() [][]int {
	var out [][]int
	for ni := range t.nodes {
		nb := &t.nodes[ni]
		if nb.left < 0 {
			out = append(out, t.perm[nb.lo:nb.hi])
		}
	}
	return out
}

// neighbour is one candidate in a k-nearest-neighbour search.
type neighbour struct {
	idx   int
	dist2 float64
}

// KNearest returns the indices of the k nearest points to (x, y, z)
// together with their squared distances, ordered nearest first. The query
// point itself is included when present in the tree. If the tree holds
// fewer than k points, all are returned.
func (t *Tree) KNearest(x, y, z float64, k int) (idx []int, dist2 []float64) {
	if k <= 0 || len(t.nodes) == 0 {
		return nil, nil
	}
	h := &nbrHeap{}
	t.kNearest(0, x, y, z, k, h)
	// Heap is a max-heap on distance; unload and reverse.
	out := make([]neighbour, len(*h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h.pop()
	}
	idx = make([]int, len(out))
	dist2 = make([]float64, len(out))
	for i, nb := range out {
		idx[i] = nb.idx
		dist2[i] = nb.dist2
	}
	return idx, dist2
}

func (t *Tree) kNearest(ni int, x, y, z float64, k int, h *nbrHeap) {
	nb := &t.nodes[ni]
	if len(*h) == k && t.boxDist2(nb, x, y, z) > (*h)[0].dist2 {
		return
	}
	if nb.left < 0 {
		for _, j := range t.perm[nb.lo:nb.hi] {
			d2 := t.Dist2(j, x, y, z)
			if len(*h) < k {
				h.push(neighbour{j, d2})
			} else if d2 < (*h)[0].dist2 {
				h.pop()
				h.push(neighbour{j, d2})
			}
		}
		return
	}
	// Visit the nearer child first for better pruning.
	l, r := nb.left, nb.right
	dl := t.boxDist2(&t.nodes[l], x, y, z)
	dr := t.boxDist2(&t.nodes[r], x, y, z)
	if dr < dl {
		l, r = r, l
	}
	t.kNearest(l, x, y, z, k, h)
	t.kNearest(r, x, y, z, k, h)
}

// nbrHeap is a max-heap of neighbours keyed on dist2.
type nbrHeap []neighbour

func (h *nbrHeap) push(n neighbour) {
	*h = append(*h, n)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].dist2 >= (*h)[i].dist2 {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *nbrHeap) pop() neighbour {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && (*h)[l].dist2 > (*h)[big].dist2 {
			big = l
		}
		if r < last && (*h)[r].dist2 > (*h)[big].dist2 {
			big = r
		}
		if big == i {
			break
		}
		(*h)[i], (*h)[big] = (*h)[big], (*h)[i]
		i = big
	}
	return top
}
