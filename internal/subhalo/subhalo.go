// Package subhalo identifies gravitationally self-bound substructure
// within FOF halos.
//
// It implements the paper's description (§3.3.1) of the hierarchical
// structure finder of Maciejewski et al. / Springel et al. (SUBFIND
// family): "The local density for each particle in the parent FOF halo is
// estimated by finding a specified number of nearest neighbor particles
// ... A subhalo candidate tree is then constructed by iterating over the
// particle list in sorted order according to density. Finally, candidate
// particles with high total energy are 'unbound' from subhalos in a
// multi-pass algorithm, removing no more than one-quarter of the particles
// with positive energy at each step."
//
// Like the paper's implementation, the finder is tree-based and takes each
// halo as one unit of work: a node holding a huge halo cannot hand part of
// it to another, which is exactly why the per-halo cost is so unbalanced
// across nodes (§4.2's 8172 s vs 1457 s spread) and why it is a candidate
// for off-loading in the combined workflow.
//
// Within a halo, the per-particle passes run on dparallel.Default, as
// PISTON writes its analysis data-parallel (§3.3): the neighbour search
// that gives each particle its density and its candidate-tree neighbours
// (one search per particle, shared by both), and each unbinding pass's
// potentials. Every particle writes only its own slots, and what follows
// (the density-ordered walk, the energy scan, the sort and the drops) stays
// serial in input order, so the result is the same bytes at any worker
// count. The §4.2 model behind workflow-sim -subhalo still charges the
// paper's serial per-halo cost.
package subhalo

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bhtree"
	"repro/internal/dparallel"
)

// Options configures substructure finding.
type Options struct {
	// Mass is the per-particle mass (> 0).
	Mass float64
	// K is the nearest-neighbour count for density estimation (>= 2).
	K int
	// MinSize discards candidates that end smaller after unbinding.
	MinSize int
	// MaxUnbindFraction caps the share of positive-energy particles removed
	// per unbinding pass; the paper uses one quarter. <= 0 selects 0.25.
	MaxUnbindFraction float64
	// G scales the potential energy against kinetic energy; 1 for natural
	// units (tests), or the physical constant for the chosen unit system.
	G float64
	// Theta is the Barnes-Hut opening angle for unbinding potentials;
	// <= 0 selects 0.6.
	Theta float64
	// Softening is the potential's constant distance offset.
	Softening float64
	// UseKernel selects the cubic-spline SPH density estimator rather than
	// the top-hat mass-over-volume form.
	UseKernel bool
}

func (o *Options) setDefaults() error {
	if o.Mass <= 0 {
		return fmt.Errorf("subhalo: mass %g must be positive", o.Mass)
	}
	if o.K < 2 {
		return fmt.Errorf("subhalo: K=%d must be >= 2", o.K)
	}
	if o.MinSize < 1 {
		return fmt.Errorf("subhalo: MinSize=%d must be >= 1", o.MinSize)
	}
	if o.MaxUnbindFraction <= 0 {
		o.MaxUnbindFraction = 0.25
	}
	if o.G <= 0 {
		o.G = 1
	}
	if o.Theta <= 0 {
		o.Theta = 0.6
	}
	return nil
}

// Subhalo is one self-bound substructure. Indices reference the input
// arrays; Peak is the index of the subhalo's densest particle.
type Subhalo struct {
	Indices []int
	Peak    int
	// Removed counts members stripped by the unbinding passes.
	Removed int
}

// Count returns the member count.
func (s *Subhalo) Count() int { return len(s.Indices) }

// Result is the outcome of a substructure search over one halo.
type Result struct {
	// Subhalos ordered by descending size. The first entry is typically
	// the halo's central ("main") subhalo containing the background body.
	Subhalos []Subhalo
	// Density holds the estimated local density per input particle.
	Density []float64
	// Candidates counts density-peak candidates before unbinding.
	Candidates int
}

// Find runs the substructure search over one halo's member particles
// (coordinates must be unwrapped — no periodic straddling).
func Find(x, y, z, vx, vy, vz []float64, o Options) (*Result, error) {
	if err := o.setDefaults(); err != nil {
		return nil, err
	}
	n := len(x)
	for _, s := range [][]float64{y, z, vx, vy, vz} {
		if len(s) != n {
			return nil, fmt.Errorf("subhalo: array length mismatch")
		}
	}
	if n == 0 {
		return &Result{}, nil
	}
	tree, err := bhtree.Build(x, y, z, o.Mass, 8)
	if err != nil {
		return nil, err
	}
	rho, nbrs, err := tree.Density(bhtree.DensityOptions{K: o.K, UseKernel: o.UseKernel})
	if err != nil {
		return nil, err
	}
	k := len(nbrs) / n

	// Iterate particles in decreasing density; attach each to the group of
	// its nearest denser (already-processed) neighbours among the k the
	// density pass found. Joining two groups marks a saddle point: the
	// smaller group is frozen as a subhalo candidate before being absorbed.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if rho[order[a]] != rho[order[b]] {
			return rho[order[a]] > rho[order[b]]
		}
		return order[a] < order[b] // deterministic tie-break
	})
	groupOf := make([]int, n) // -1 until the particle is processed
	for i := range groupOf {
		groupOf[i] = -1
	}
	var groups [][]int // live group members
	var peaks []int    // densest particle per live group
	var candidates []Subhalo

	for _, i := range order {
		// Up to two distinct groups among the nearest processed neighbours,
		// in distance order.
		var g1, g2 = -1, -1
		for _, j := range nbrs[i*k : (i+1)*k] {
			if int(j) == i || groupOf[j] < 0 {
				continue
			}
			g := groupOf[j]
			if g1 == -1 {
				g1 = g
			} else if g != g1 {
				g2 = g
				break
			}
		}
		switch {
		case g1 == -1:
			// Local density peak: new group.
			groupOf[i] = len(groups)
			groups = append(groups, []int{i})
			peaks = append(peaks, i)
		case g2 == -1:
			groups[g1] = append(groups[g1], i)
			groupOf[i] = g1
		default:
			// Saddle point: freeze the smaller group as a candidate, then
			// merge it (and the particle) into the larger.
			small, large := g1, g2
			if len(groups[small]) > len(groups[large]) {
				small, large = large, small
			}
			candidates = append(candidates, Subhalo{Indices: groups[small], Peak: peaks[small]})
			for _, j := range groups[small] {
				groupOf[j] = large
			}
			groups[large] = append(groups[large], groups[small]...)
			groups[large] = append(groups[large], i)
			groups[small] = nil
			groupOf[i] = large
		}
	}
	// Remaining live groups are candidates too (the largest is the halo's
	// central subhalo).
	for g, members := range groups {
		if members != nil {
			candidates = append(candidates, Subhalo{Indices: members, Peak: peaks[g]})
		}
	}
	res := &Result{Density: rho, Candidates: len(candidates)}
	for _, cand := range candidates {
		kept, removed := unbind(x, y, z, vx, vy, vz, cand.Indices, o)
		if len(kept) >= o.MinSize {
			sort.Ints(kept)
			res.Subhalos = append(res.Subhalos, Subhalo{Indices: kept, Peak: cand.Peak, Removed: removed})
		}
	}
	sort.Slice(res.Subhalos, func(a, b int) bool {
		if len(res.Subhalos[a].Indices) != len(res.Subhalos[b].Indices) {
			return len(res.Subhalos[a].Indices) > len(res.Subhalos[b].Indices)
		}
		return res.Subhalos[a].Peak < res.Subhalos[b].Peak
	})
	return res, nil
}

// unbind iteratively removes unbound members: per pass, energies are
// computed against the candidate's own mass distribution and bulk
// velocity, and at most MaxUnbindFraction of the positive-energy particles
// (the most energetic first) are removed. The energies are computed on
// dparallel.Default, each into its member's slot, and scanned serially.
func unbind(x, y, z, vx, vy, vz []float64, members []int, o Options) (kept []int, removed int) {
	cur := append([]int(nil), members...)
	m := len(cur)
	sx, sy, sz := make([]float64, m), make([]float64, m), make([]float64, m)
	energy := make([]float64, m)
	drop := make([]bool, m)
	for len(cur) >= o.MinSize {
		// Bulk velocity.
		var mvx, mvy, mvz float64
		for _, i := range cur {
			mvx += vx[i]
			mvy += vy[i]
			mvz += vz[i]
		}
		n := float64(len(cur))
		mvx /= n
		mvy /= n
		mvz /= n
		// Potentials over current members only.
		sx, sy, sz = sx[:len(cur)], sy[:len(cur)], sz[:len(cur)]
		for k, i := range cur {
			sx[k], sy[k], sz[k] = x[i], y[i], z[i]
		}
		tree, err := bhtree.Build(sx, sy, sz, o.Mass, 8)
		if err != nil {
			return cur, removed
		}
		dparallel.Default.ForRange(len(cur), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				i := cur[k]
				dvx, dvy, dvz := vx[i]-mvx, vy[i]-mvy, vz[i]-mvz
				kin := 0.5 * (dvx*dvx + dvy*dvy + dvz*dvz)
				pot := o.G * tree.ApproxPotential(sx[k], sy[k], sz[k], k, o.Theta, o.Softening)
				energy[k] = kin + pot
			}
		})
		var positive []int // positions within cur
		for k, e := range energy[:len(cur)] {
			if e > 0 {
				positive = append(positive, k)
			}
		}
		if len(positive) == 0 {
			return cur, removed
		}
		sort.Slice(positive, func(a, b int) bool { return energy[positive[a]] > energy[positive[b]] })
		limit := max(1, min(len(positive), int(math.Ceil(o.MaxUnbindFraction*float64(len(positive))))))
		for _, k := range positive[:limit] {
			drop[k] = true
		}
		next := cur[:0]
		for k, i := range cur {
			if drop[k] {
				drop[k] = false
				removed++
				continue
			}
			next = append(next, i)
		}
		cur = next
	}
	return cur, removed
}
