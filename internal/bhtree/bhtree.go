// Package bhtree implements the Barnes-Hut octree the subhalo finder's
// density estimation and unbinding passes build on.
//
// "A Barnes-Hut tree, similar to an octree but with support for more
// efficient traversals, is used for calculating the local densities using
// an SPH (Smoothed Particle Hydrodynamics) kernel" (§3.3.1). The tree here
// stores per-node total mass and center of mass, supports k-nearest-
// neighbour queries (for adaptive SPH smoothing lengths), SPH density
// estimates with the standard cubic-spline kernel, and the multipole
// (monopole) potential approximation used to make the unbinding pass
// O(n log n) instead of O(n²). A built tree is read-only: queries may run
// concurrently.
package bhtree

import (
	"fmt"
	"math"

	"repro/internal/dparallel"
)

// Tree is a Barnes-Hut octree over a fixed, non-periodic point set
// (subhalo analysis always runs on unwrapped halo members).
type Tree struct {
	x, y, z []float64
	mass    float64 // equal particle mass
	nodes   []node
	// perm holds particle indices; every node owns the contiguous span
	// perm[lo:hi]. pos is its inverse: particle p sits at perm[pos[p]].
	perm, pos []int32
	// LeafSize bounds particles per leaf.
	LeafSize int
}

type node struct {
	// children[8], -1 when absent; all absent in a leaf.
	children [8]int32
	leaf     bool
	// members is the index span [lo, hi) into perm.
	lo, hi int32
	// center and half-width of the cubic cell.
	cx, cy, cz float64
	half       float64
	// Aggregates.
	comX, comY, comZ float64
	totalMass        float64
}

// Build constructs the octree. mass is the per-particle mass (> 0).
func Build(x, y, z []float64, mass float64, leafSize int) (*Tree, error) {
	n := len(x)
	if len(y) != n || len(z) != n {
		return nil, fmt.Errorf("bhtree: coordinate lengths differ: %d/%d/%d", n, len(y), len(z))
	}
	if mass <= 0 {
		return nil, fmt.Errorf("bhtree: particle mass %g must be positive", mass)
	}
	if leafSize <= 0 {
		leafSize = 8
	}
	t := &Tree{x: x, y: y, z: z, mass: mass, LeafSize: leafSize}
	if n == 0 {
		return t, nil
	}
	// Root cell: cube enclosing all points.
	var mid [3]float64
	half := 0.0
	for a, c := range [3][]float64{x, y, z} {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range c {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		mid[a] = (lo + hi) / 2
		if w := (hi - lo) / 2; w > half {
			half = w
		}
	}
	half *= 1.0001 // guard against points exactly on the boundary
	if half == 0 {
		half = 1e-12 // all points coincident
	}
	t.perm = make([]int32, n)
	for i := range t.perm {
		t.perm[i] = int32(i)
	}
	t.build(make([]int32, n), 0, int32(n), mid[0], mid[1], mid[2], half, 0)
	t.pos = make([]int32, n)
	for k, p := range t.perm {
		t.pos[p] = int32(k)
	}
	return t, nil
}

// N returns the number of particles in the tree.
func (t *Tree) N() int { return len(t.x) }

// build creates the subtree for perm[lo:hi] in the cell centred at
// (cx,cy,cz) with the given half-width, returning the node index. scratch
// is as long as perm; the octant sort of a span goes through its own part.
func (t *Tree) build(scratch []int32, lo, hi int32, cx, cy, cz, half float64, depth int) int32 {
	idx := int32(len(t.nodes))
	const maxDepth = 64
	nd := node{lo: lo, hi: hi, cx: cx, cy: cy, cz: cz, half: half,
		leaf: hi-lo <= int32(t.LeafSize) || depth >= maxDepth}
	for i := range nd.children {
		nd.children[i] = -1
	}
	// Aggregates.
	var sx, sy, sz float64
	for _, p := range t.perm[lo:hi] {
		sx += t.x[p]
		sy += t.y[p]
		sz += t.z[p]
	}
	cnt := float64(hi - lo)
	nd.totalMass = t.mass * cnt
	nd.comX, nd.comY, nd.comZ = sx/cnt, sy/cnt, sz/cnt
	t.nodes = append(t.nodes, nd)
	if nd.leaf {
		return idx
	}
	// Partition the span into octants (three successive binary splits).
	span := t.perm[lo:hi]
	oct := func(p int32) int {
		o := 0
		if t.x[p] >= cx {
			o |= 4
		}
		if t.y[p] >= cy {
			o |= 2
		}
		if t.z[p] >= cz {
			o |= 1
		}
		return o
	}
	// Counting sort by octant.
	var counts [8]int32
	for _, p := range span {
		counts[oct(p)]++
	}
	var starts [9]int32
	for o := 0; o < 8; o++ {
		starts[o+1] = starts[o] + counts[o]
	}
	sorted := scratch[lo:hi]
	var fill [8]int32
	for _, p := range span {
		o := oct(p)
		sorted[starts[o]+fill[o]] = p
		fill[o]++
	}
	copy(span, sorted)
	q := half / 2
	for o := 0; o < 8; o++ {
		if counts[o] == 0 {
			continue
		}
		ox, oy, oz := cx-q, cy-q, cz-q
		if o&4 != 0 {
			ox = cx + q
		}
		if o&2 != 0 {
			oy = cy + q
		}
		if o&1 != 0 {
			oz = cz + q
		}
		child := t.build(scratch, lo+starts[o], lo+starts[o]+counts[o], ox, oy, oz, q, depth+1)
		t.nodes[idx].children[o] = child
	}
	return idx
}

// ApproxPotential returns the Barnes-Hut monopole approximation of the
// gravitational potential at (px,py,pz), excluding (when self >= 0) the
// particle with that index from the sum. theta is the standard opening
// angle (0.5-0.8 typical); softening the constant distance offset.
func (t *Tree) ApproxPotential(px, py, pz float64, self int, theta, softening float64) float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	return t.approxPot(0, px, py, pz, self, theta, softening)
}

func (t *Tree) approxPot(ni int32, px, py, pz float64, self int, theta, softening float64) float64 {
	nd := &t.nodes[ni]
	dx := nd.comX - px
	dy := nd.comY - py
	dz := nd.comZ - pz
	d := math.Sqrt(dx*dx + dy*dy + dz*dz)
	size := nd.half * 2
	if d > 0 && size/d < theta {
		pot := -nd.totalMass / (d + softening)
		if self >= 0 && nd.lo <= t.pos[self] && t.pos[self] < nd.hi {
			// Remove the self term approximately: subtracting the self
			// particle's contribution at the node distance keeps the
			// approximation consistent with the opening criterion.
			pot += t.mass / (d + softening)
		}
		return pot
	}
	if nd.leaf {
		pot := 0.0
		for _, p := range t.perm[nd.lo:nd.hi] {
			if int(p) == self {
				continue
			}
			ddx := t.x[p] - px
			ddy := t.y[p] - py
			ddz := t.z[p] - pz
			r := math.Sqrt(ddx*ddx+ddy*ddy+ddz*ddz) + softening
			if r > 0 {
				pot -= t.mass / r
			}
		}
		return pot
	}
	pot := 0.0
	for _, c := range nd.children {
		if c >= 0 {
			pot += t.approxPot(c, px, py, pz, self, theta, softening)
		}
	}
	return pot
}

// nbr is one k-nearest-neighbour candidate.
type nbr struct {
	idx int
	d2  float64
}

// maxHeap is a max-heap of neighbours keyed on squared distance.
type maxHeap []nbr

func (h *maxHeap) push(n nbr) {
	*h = append(*h, n)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].d2 >= (*h)[i].d2 {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *maxHeap) pop() nbr {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && (*h)[l].d2 > (*h)[big].d2 {
			big = l
		}
		if r < last && (*h)[r].d2 > (*h)[big].d2 {
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

// nearest leaves the k nearest particles to (px,py,pz) in out, which has
// room for min(k, N()), nearest first, and returns out cut to their number.
// h is the search heap; made with out's capacity, it never reallocates.
func (t *Tree) nearest(px, py, pz float64, k int, h *maxHeap, out []nbr) []nbr {
	*h = (*h)[:0]
	t.knn(0, px, py, pz, k, h)
	out = out[:len(*h)]
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h.pop()
	}
	return out
}

func (t *Tree) knn(ni int32, px, py, pz float64, k int, h *maxHeap) {
	nd := &t.nodes[ni]
	if len(*h) == k && t.cellDist2(nd, px, py, pz) > (*h)[0].d2 {
		return
	}
	if nd.leaf {
		for _, p := range t.perm[nd.lo:nd.hi] {
			dx := t.x[p] - px
			dy := t.y[p] - py
			dz := t.z[p] - pz
			d2 := dx*dx + dy*dy + dz*dz
			if len(*h) < k {
				h.push(nbr{int(p), d2})
			} else if d2 < (*h)[0].d2 {
				h.pop()
				h.push(nbr{int(p), d2})
			}
		}
		return
	}
	// Order children by distance for effective pruning.
	type cd struct {
		c int32
		d float64
	}
	var kids [8]cd
	nk := 0
	for _, c := range nd.children {
		if c >= 0 {
			kids[nk] = cd{c, t.cellDist2(&t.nodes[c], px, py, pz)}
			nk++
		}
	}
	for i := 1; i < nk; i++ {
		for j := i; j > 0 && kids[j].d < kids[j-1].d; j-- {
			kids[j], kids[j-1] = kids[j-1], kids[j]
		}
	}
	for i := 0; i < nk; i++ {
		t.knn(kids[i].c, px, py, pz, k, h)
	}
}

func (t *Tree) cellDist2(nd *node, px, py, pz float64) float64 {
	d2 := 0.0
	for _, ax := range [3][2]float64{{px, nd.cx}, {py, nd.cy}, {pz, nd.cz}} {
		d := math.Abs(ax[0]-ax[1]) - nd.half
		if d > 0 {
			d2 += d * d
		}
	}
	return d2
}

// SPHKernel evaluates the standard cubic-spline SPH kernel W(r, h),
// normalized in 3-D.
func SPHKernel(r, h float64) float64 {
	if h <= 0 {
		return 0
	}
	q := r / h
	sigma := 8 / (math.Pi * h * h * h)
	switch {
	case q < 0.5:
		return sigma * (1 - 6*q*q + 6*q*q*q)
	case q < 1:
		u := 1 - q
		return sigma * 2 * u * u * u
	default:
		return 0
	}
}

// DensityOptions configures SPH density estimation.
type DensityOptions struct {
	// K is the number of nearest neighbours (including the particle
	// itself); the paper's subhalo finder estimates "the local density for
	// each particle ... by finding a specified number of nearest neighbor
	// particles". Typical values 16-64.
	K int
	// UseKernel selects the cubic-spline SPH kernel estimate. When false,
	// the estimator is the paper's simpler statement — "a density based on
	// the total mass of these particles and the distance to the furthest of
	// these": rho = K·m / (4/3 π h³).
	UseKernel bool
}

// Density estimates the local density at every particle from its
// k = min(K, N()) nearest neighbours, itself included, and returns them:
// nbrs[i*k:(i+1)*k] lists particle i's nearest first.
// The searches run on dparallel.Default, one heap and buffer per chunk;
// each particle writes only its own slots, so no output depends on chunking.
func (t *Tree) Density(o DensityOptions) (rho []float64, nbrs []int32, err error) {
	if o.K < 2 {
		return nil, nil, fmt.Errorf("bhtree: density needs K >= 2, got %d", o.K)
	}
	n := t.N()
	k := min(o.K, n)
	dens, list := make([]float64, n), make([]int32, n*k)
	dparallel.Default.ForRange(n, func(lo, hi int) {
		h := make(maxHeap, 0, k)
		buf := make([]nbr, k)
		for i := lo; i < hi; i++ {
			out := t.nearest(t.x[i], t.y[i], t.z[i], k, &h, buf)
			for j, nb := range out {
				list[i*k+j] = int32(nb.idx)
			}
			dens[i] = t.density(out, o.UseKernel)
		}
	})
	return dens, list, nil
}

// density is the estimate from one particle's neighbours, nearest first.
func (t *Tree) density(out []nbr, useKernel bool) float64 {
	h := math.Sqrt(out[len(out)-1].d2)
	if h == 0 {
		// Coincident points: declare a tiny smoothing length so the
		// density is large and finite rather than infinite.
		h = 1e-12
	}
	if useKernel {
		rho := 0.0
		for _, nb := range out {
			rho += t.mass * SPHKernel(math.Sqrt(nb.d2), h)
		}
		return rho
	}
	vol := 4.0 / 3.0 * math.Pi * h * h * h
	return t.mass * float64(len(out)) / vol
}
