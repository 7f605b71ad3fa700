package halo

import (
	"fmt"
	"sort"

	"repro/internal/kdtree"
	"repro/internal/nbody"
	"repro/internal/periodic"
)

// Halo is one identified FOF halo. Indices reference the particle
// container the finder ran over; Tag is the minimum particle tag in the
// halo (HACC's convention for a stable global halo identifier).
type Halo struct {
	// Tag is the halo's global identifier: the minimum particle tag.
	Tag int64
	// Indices are the member particle indices, ascending.
	Indices []int
	// Center is the center of mass, computed with periodic unwrapping and
	// folded back into the box.
	Center [3]float64
	// MBP is the index (into the same container) of the most bound
	// particle once center finding has run; -1 before that.
	MBP int
	// MBPTag is the tag of the most bound particle, -1 before center
	// finding.
	MBPTag int64
}

// Count returns the number of member particles.
func (h *Halo) Count() int { return len(h.Indices) }

// Catalog is the result of a halo-finding pass over one particle set.
type Catalog struct {
	// Halos ordered by descending particle count, ties by ascending Tag.
	Halos []Halo
	// LinkingLength and MinSize record the FOF parameters used.
	LinkingLength float64
	MinSize       int
}

// LargestCount returns the particle count of the largest halo, 0 if none.
func (c *Catalog) LargestCount() int {
	if len(c.Halos) == 0 {
		return 0
	}
	return c.Halos[0].Count()
}

// sortCatalog orders halos by descending size then ascending tag.
func sortCatalog(halos []Halo) {
	sort.Slice(halos, func(a, b int) bool {
		if len(halos[a].Indices) != len(halos[b].Indices) {
			return len(halos[a].Indices) > len(halos[b].Indices)
		}
		return halos[a].Tag < halos[b].Tag
	})
}

// Options configures FOF halo finding.
type Options struct {
	// LinkingLength is the FOF linking length in the same units as the
	// positions. Cosmology runs conventionally use b=0.2 times the mean
	// inter-particle spacing ("the choice of linking length is connected to
	// the choice of an isodensity surface", §3.3.1).
	LinkingLength float64
	// MinSize discards halos with fewer particles ("to avoid spurious
	// identifications, halos with fewer than a specified number of
	// particles are discarded", §3.3.1). HACC production runs and Fig. 3
	// use 40 as the floor; values < 1 are rejected.
	MinSize int
	// Periodic enables minimum-image linking across the box faces. The
	// parallel finder runs rank-local FOF with Periodic=true over primary
	// plus overload particles, which keeps true periodic neighbours linked
	// without coordinate shifting.
	Periodic bool
	// LeafSize tunes the k-d tree leaf size; <= 0 selects the default.
	LeafSize int
	// DisableSubtreeMerge turns off the §3.3.1 bulk shortcut (merging a
	// whole subtree when its bounding box provably lies within the linking
	// length) — kept as an ablation knob; the shortcut changes no results,
	// only the number of distance comparisons.
	DisableSubtreeMerge bool
}

func (o Options) validate() error {
	if o.LinkingLength <= 0 {
		return fmt.Errorf("halo: linking length %g must be positive", o.LinkingLength)
	}
	if o.MinSize < 1 {
		return fmt.Errorf("halo: min size %d must be >= 1", o.MinSize)
	}
	return nil
}

// FOF finds the friends-of-friends halos of the particle set: one self-join
// of a k-d tree yields every pair within the linking length, and a
// union-find structure keeps the connected components.
func FOF(p *nbody.Particles, box float64, o Options) (*Catalog, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	period := 0.0
	if o.Periodic {
		period = box
	}
	tree, err := kdtree.Build(p.X, p.Y, p.Z, period, o.LeafSize)
	if err != nil {
		return nil, err
	}
	ds := NewDisjointSet(p.N())
	// Whole subtrees within the linking length merge without per-particle
	// distance tests (§3.3.1): every member of a links to every member of
	// b (to the rest of a when b is nil), so all are one component.
	bulk := func(a, b []int) {
		for _, j := range a[1:] {
			ds.Union(a[0], j)
		}
		for _, j := range b {
			ds.Union(a[0], j)
		}
	}
	if o.DisableSubtreeMerge {
		bulk = nil
	}
	tree.PairsWithin(o.LinkingLength, bulk, func(i, j int) { ds.Union(i, j) })
	return catalogFromGroups(p, box, ds.Groups(o.MinSize), o), nil
}

// NaiveFOF is the O(n²) pairwise reference implementation, retained for
// correctness testing and as the ablation baseline for the k-d tree finder
// (DESIGN.md §6).
func NaiveFOF(p *nbody.Particles, box float64, o Options) (*Catalog, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	b2 := o.LinkingLength * o.LinkingLength
	ds := NewDisjointSet(p.N())
	for i := 0; i < p.N(); i++ {
		for j := i + 1; j < p.N(); j++ {
			dx, dy, dz := p.X[i]-p.X[j], p.Y[i]-p.Y[j], p.Z[i]-p.Z[j]
			if o.Periodic {
				dx, dy, dz = periodic.MinImage(dx, box), periodic.MinImage(dy, box), periodic.MinImage(dz, box)
			}
			if dx*dx+dy*dy+dz*dz <= b2 {
				ds.Union(i, j)
			}
		}
	}
	return catalogFromGroups(p, box, ds.Groups(o.MinSize), o), nil
}

func catalogFromGroups(p *nbody.Particles, box float64, groups [][]int, o Options) *Catalog {
	cat := &Catalog{LinkingLength: o.LinkingLength, MinSize: o.MinSize}
	for _, g := range groups {
		h := Halo{Indices: g, MBP: -1, MBPTag: -1}
		h.Tag = minTag(p, g)
		h.Center = centerOfMass(p, g, box, o.Periodic)
		cat.Halos = append(cat.Halos, h)
	}
	sortCatalog(cat.Halos)
	return cat
}

func minTag(p *nbody.Particles, idx []int) int64 {
	mt := p.Tag[idx[0]]
	for _, i := range idx[1:] {
		if p.Tag[i] < mt {
			mt = p.Tag[i]
		}
	}
	return mt
}

func centerOfMass(p *nbody.Particles, idx []int, box float64, periodicBox bool) [3]float64 {
	// Unwrap member positions relative to the first member so halos
	// straddling the periodic boundary average correctly.
	ref := [3]float64{p.X[idx[0]], p.Y[idx[0]], p.Z[idx[0]]}
	var sum [3]float64
	for _, i := range idx {
		pos := [3]float64{p.X[i], p.Y[i], p.Z[i]}
		for a := 0; a < 3; a++ {
			d := pos[a] - ref[a]
			if periodicBox {
				d = periodic.MinImage(d, box)
			}
			sum[a] += ref[a] + d
		}
	}
	n := float64(len(idx))
	var out [3]float64
	for a := 0; a < 3; a++ {
		v := sum[a] / n
		if periodicBox {
			for v < 0 {
				v += box
			}
			for v >= box {
				v -= box
			}
		}
		out[a] = v
	}
	return out
}
