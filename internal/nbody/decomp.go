package nbody

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/periodic"
)

// Slab decomposition: the box is cut along x into equal slabs, one per
// rank. The paper distributes particles "across the processors according to
// a domain decomposition" with "overload regions ... defined at the
// boundaries of the processors, with each of the neighboring processors
// receiving a copy of the particles in this region" sized so that "each
// halo is assured of being found in its entirety by at least one processor"
// (§3.3.1). A 1-D slab cut keeps the exchange logic transparent while
// exercising the same ghost-copy pattern as HACC's 3-D decomposition.

// SlabBounds returns the [lo, hi) x-extent of rank's slab for a box of
// side box split over size ranks.
func SlabBounds(rank, size int, box float64) (lo, hi float64) {
	w := box / float64(size)
	lo = float64(rank) * w
	hi = lo + w
	if rank == size-1 {
		hi = box // absorb rounding
	}
	return lo, hi
}

// SlabOwner returns the rank whose slab contains coordinate x (wrapped
// into [0, box)).
func SlabOwner(x float64, size int, box float64) int {
	x = periodic.Wrap(x, box)
	r := int(x / (box / float64(size)))
	if r >= size {
		r = size - 1
	}
	return r
}

// Distribute redistributes particles so every rank ends with exactly the
// particles whose x lies in its slab. Each rank contributes its current
// local set; the exchange is a single AllToAll. This is the
// "redistribution" phase the off-line workflow pays for after reading
// Level 1 data back from disk (Table 4).
func Distribute(c *mpi.Comm, local *Particles, box float64) (*Particles, error) {
	if err := local.Validate(); err != nil {
		return nil, err
	}
	size := c.Size()
	buckets := make([][]int, size)
	for i := 0; i < local.N(); i++ {
		r := SlabOwner(local.X[i], size, box)
		buckets[r] = append(buckets[r], i)
	}
	out := make([]any, size)
	for r := 0; r < size; r++ {
		out[r] = local.Select(buckets[r])
	}
	in := c.AllToAll(out)
	parts := make([]*Particles, len(in))
	for r, payload := range in {
		parts[r] = payload.(*Particles)
	}
	return Concat(parts...), nil
}

// ExchangeOverload returns the ghost particles for a rank: copies of
// neighbour particles within overload distance of the rank's slab
// boundaries (periodic across the box ends). local must already be
// decomposed (every particle inside the caller's slab).
func ExchangeOverload(c *mpi.Comm, local *Particles, box, overload float64) (*Particles, error) {
	size := c.Size()
	rank := c.Rank()
	if overload <= 0 {
		return nil, fmt.Errorf("nbody: overload width %g must be positive", overload)
	}
	slabW := box / float64(size)
	if size > 1 && overload > slabW {
		return nil, fmt.Errorf("nbody: overload %g exceeds slab width %g", overload, slabW)
	}
	if size == 1 {
		// Single rank sees the whole box; no ghosts needed (periodic FOF
		// handles wrapping directly).
		return NewParticles(0), nil
	}
	lo, hi := SlabBounds(rank, size, box)
	left := (rank - 1 + size) % size
	right := (rank + 1) % size
	// Particles near my low edge go to the left neighbour, near my high
	// edge to the right neighbour. On two ranks both are the same neighbour:
	// it gets the union once, so a particle near both edges is one ghost.
	var toLeft, toRight []int
	for i := 0; i < local.N(); i++ {
		nearLo, nearHi := local.X[i] < lo+overload, local.X[i] >= hi-overload
		if nearLo || (nearHi && left == right) {
			toLeft = append(toLeft, i)
		}
		if nearHi && left != right {
			toRight = append(toRight, i)
		}
	}
	out := make([]any, size)
	for r := range out {
		out[r] = NewParticles(0)
	}
	out[left] = local.Select(toLeft)
	if left != right {
		out[right] = local.Select(toRight)
	}
	in := c.AllToAll(out)
	var parts []*Particles
	for r, payload := range in {
		if r != rank {
			parts = append(parts, payload.(*Particles))
		}
	}
	return Concat(parts...), nil
}
