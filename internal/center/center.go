// Package center finds halo centers with the Most Bound Particle (MBP)
// definition: the member particle minimizing the gravitational potential
//
//	Φ(i) = Σ_{j≠i} -m / (d_ij + ε)
//
// where ε is "a small constant offset term ... added to the distance to
// avoid numerical issues caused by extremely close particles" (§3.3.2).
//
// Two finders are provided, mirroring the paper:
//
//   - BruteForce — the PISTON/data-parallel algorithm: "computes the
//     potentials for all particles and finds the minimum. The algorithm is
//     easily parallelizable, since the potential for each particle can be
//     computed in parallel" (§3.3.2). It runs on any dparallel backend; on
//     the modelled GPUs it is the paper's factor-~50 winner.
//
//   - AStar — the serial best-first search that "uses an optimistic
//     heuristic to estimate the potential for each particle, allowing it to
//     locate the particle with minimum potential without having to
//     explicitly compute the potentials for all particles", reported
//     "faster than a brute force approach ... by a problem-dependent factor
//     of roughly eight, but ... still a serial O(n²) algorithm" (§3.3.2).
//
// Both operate on plain coordinate slices; halos that straddle a periodic
// boundary must be unwrapped first (see Unwrap).
package center

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/dparallel"
	"repro/internal/kdtree"
	"repro/internal/periodic"
)

// Options configures center finding.
type Options struct {
	// Mass is the (equal) particle mass; only scales the potential, not the
	// argmin, but is kept so reported potentials are physical.
	Mass float64
	// Softening is the constant distance offset ε. Zero is valid: the
	// potential sum simply skips the self term.
	Softening float64
	// Backend executes the brute-force potential map; nil selects
	// dparallel.Default.
	Backend dparallel.Backend
	// GroupLeaf tunes the A* heuristic's particle grouping (leaf size of
	// the bounding k-d tree); <= 0 selects 64.
	GroupLeaf int
}

func (o Options) backend() dparallel.Backend {
	if o.Backend != nil {
		return o.Backend
	}
	return dparallel.Default
}

func (o Options) mass() float64 {
	if o.Mass > 0 {
		return o.Mass
	}
	return 1
}

// Result reports a center-finding outcome.
type Result struct {
	// Index of the most bound particle within the input slices.
	Index int
	// Potential is the MBP's potential.
	Potential float64
	// Evaluated counts exact O(n) potential evaluations performed; the
	// brute force always evaluates all n, A* usually far fewer.
	Evaluated int
}

// Potential computes the exact potential of particle i.
func Potential(x, y, z []float64, i int, mass, softening float64) float64 {
	pot := 0.0
	xi, yi, zi := x[i], y[i], z[i]
	for j := range x {
		if j == i {
			continue
		}
		dx := x[j] - xi
		dy := y[j] - yi
		dz := z[j] - zi
		d := math.Sqrt(dx*dx+dy*dy+dz*dz) + softening
		pot -= mass / d
	}
	return pot
}

// BruteForce computes the potential of every particle in parallel on the
// configured backend and returns the minimum. This is the single data-
// parallel implementation that targets CPUs and accelerators alike.
func BruteForce(x, y, z []float64, o Options) (Result, error) {
	n := len(x)
	if n == 0 {
		return Result{}, fmt.Errorf("center: empty particle set")
	}
	if len(y) != n || len(z) != n {
		return Result{}, fmt.Errorf("center: coordinate lengths differ: %d/%d/%d", n, len(y), len(z))
	}
	m := o.mass()
	idx, pot := dparallel.MinIndex(o.backend(), n, func(i int) float64 {
		return Potential(x, y, z, i, m, o.Softening)
	})
	return Result{Index: idx, Potential: pot, Evaluated: n}, nil
}

// astarItem is one particle in the A* frontier, keyed by its optimistic
// potential bound.
type astarItem struct {
	idx   int
	bound float64
}

type astarHeap []astarItem

func (h astarHeap) Len() int            { return len(h) }
func (h astarHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h astarHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *astarHeap) Push(v interface{}) { *h = append(*h, v.(astarItem)) }
func (h *astarHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// AStar locates the most bound particle by best-first search. An admissible
// (optimistic, never above the true potential) per-particle bound is built
// by grouping particles into k-d tree leaves and attributing each group's
// whole mass at its nearest bounding-box distance. Particles are then
// expanded in bound order, evaluating exact potentials lazily; the search
// stops as soon as the best exact potential is at or below the smallest
// outstanding bound, which proves the minimum without touching the
// remaining particles.
func AStar(x, y, z []float64, o Options) (Result, error) {
	n := len(x)
	if n == 0 {
		return Result{}, fmt.Errorf("center: empty particle set")
	}
	if len(y) != n || len(z) != n {
		return Result{}, fmt.Errorf("center: coordinate lengths differ: %d/%d/%d", n, len(y), len(z))
	}
	leaf := o.GroupLeaf
	if leaf <= 0 {
		leaf = 16
	}
	m := o.mass()
	tree, err := kdtree.Build(x, y, z, 0, leaf)
	if err != nil {
		return Result{}, err
	}
	// Optimistic bound for every particle via a Barnes-Hut-style walk:
	// distant nodes contribute their whole mass at the nearest point of
	// their bounding box (an underestimate of distance, hence an optimistic
	// potential); near nodes are opened, and leaves are summed exactly.
	// Every approximation only lowers the potential, so the bound is
	// admissible: bound(i) <= Φ(i).
	h := make(astarHeap, 0, n)
	for i := 0; i < n; i++ {
		xi, yi, zi := x[i], y[i], z[i]
		bound := 0.0
		tree.TraverseNodes(func(minB, maxB [3]float64, members []int, isLeaf bool) bool {
			dmin2 := boxDist2(xi, yi, zi, minB, maxB)
			diam2 := 0.0
			for a := 0; a < 3; a++ {
				w := maxB[a] - minB[a]
				diam2 += w * w
			}
			// Opening criterion: treat the node as a point mass only when
			// it is farther away than its own diameter.
			if dmin2 > diam2 && dmin2 > 0 {
				bound -= m * float64(len(members)) / (math.Sqrt(dmin2) + o.Softening)
				return false
			}
			if isLeaf {
				for _, j := range members {
					if j == i {
						continue
					}
					dx := x[j] - xi
					dy := y[j] - yi
					dz := z[j] - zi
					bound -= m / (math.Sqrt(dx*dx+dy*dy+dz*dz) + o.Softening)
				}
				return false
			}
			return true
		})
		h = append(h, astarItem{i, bound})
	}
	heap.Init(&h)
	best := Result{Index: -1, Potential: math.Inf(1)}
	for h.Len() > 0 {
		top := heap.Pop(&h).(astarItem)
		if best.Index >= 0 && best.Potential <= top.bound {
			break // proven: nothing left can beat the best exact value
		}
		pot := Potential(x, y, z, top.idx, m, o.Softening)
		best.Evaluated++
		if pot < best.Potential {
			best.Potential = pot
			best.Index = top.idx
		}
	}
	return best, nil
}

// Unwrap returns copies of the member coordinates (selected by idx from
// the full arrays) unwrapped relative to the first member in a periodic
// box, so that compact objects straddling the wrap become contiguous.
func Unwrap(x, y, z []float64, idx []int, box float64) (ux, uy, uz []float64) {
	n := len(idx)
	ux = make([]float64, n)
	uy = make([]float64, n)
	uz = make([]float64, n)
	if n == 0 {
		return
	}
	rx, ry, rz := x[idx[0]], y[idx[0]], z[idx[0]]
	for out, i := range idx {
		ux[out] = rx + periodic.MinImage(x[i]-rx, box)
		uy[out] = ry + periodic.MinImage(y[i]-ry, box)
		uz[out] = rz + periodic.MinImage(z[i]-rz, box)
	}
	return
}

// boxDist2 returns the squared distance from (x,y,z) to the axis-aligned
// box [minB, maxB]; 0 when inside.
func boxDist2(x, y, z float64, minB, maxB [3]float64) float64 {
	p := [3]float64{x, y, z}
	d2 := 0.0
	for a := 0; a < 3; a++ {
		switch {
		case p[a] < minB[a]:
			d := minB[a] - p[a]
			d2 += d * d
		case p[a] > maxB[a]:
			d := p[a] - maxB[a]
			d2 += d * d
		}
	}
	return d2
}
