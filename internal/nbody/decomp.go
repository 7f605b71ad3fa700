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
// particles whose x lies in its slab: rank 0's first, then rank 1's, and
// so on, each source's in its local order. The exchange is a single
// AllToAll of views (see gather), so each particle is copied once. This
// is the "redistribution" phase the off-line workflow pays for after
// reading Level 1 data back from disk (Table 4).
func Distribute(c *mpi.Comm, local *Particles, box float64) (*Particles, error) {
	if err := local.Validate(); err != nil {
		return nil, err
	}
	size := c.Size()
	// One owner pass, then a counting sort: each destination's indices are
	// an exact-size run of one backing slice, in ascending local order.
	owner := make([]int, local.N())
	end := make([]int, size+1)
	for i, x := range local.X {
		owner[i] = SlabOwner(x, size, box)
		end[owner[i]+1]++
	}
	for r := 1; r <= size; r++ {
		end[r] += end[r-1]
	}
	idx := make([]int, local.N())
	for i, r := range owner {
		idx[end[r]] = i
		end[r]++ // bucket r's start becomes its end
	}
	out := make([]any, size)
	lo := 0
	for r := range out {
		out[r] = view{local, idx[lo:end[r]]}
		lo = end[r]
	}
	return gather(c, &Particles{}, c.AllToAll(out)), nil
}

// WithOverload returns the rank's extended particle set: a copy of local
// followed by its ghosts, the neighbour particles within overload
// distance of the slab's boundaries (periodic across the box ends), in
// source rank order. A single rank has no ghosts and gets local itself.
// local must already be decomposed (every particle inside the caller's
// slab).
func WithOverload(c *mpi.Comm, local *Particles, box, overload float64) (*Particles, error) {
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
		return local, nil
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
		out[r] = view{}
	}
	out[left] = view{local, toLeft}
	if left != right {
		out[right] = view{local, toRight}
	}
	return gather(c, local, c.AllToAll(out)), nil
}

// A view is the particles of p at idx. Ranks exchange views, not copies:
// each receiver reads the senders' particles in place between the
// AllToAll and the barrier that closes the exchange, as an MPI one-sided
// get does inside a fence epoch.
type view struct {
	p   *Particles
	idx []int
}

// gather returns head's particles followed by those of every view in in,
// in order, in one container, then waits at a barrier, so that no rank
// returns, free to change its particles, while another still reads them.
func gather(c *mpi.Comm, head *Particles, in []any) *Particles {
	n := head.N()
	for _, v := range in {
		n += len(v.(view).idx)
	}
	q := NewParticles(n)
	at := copy(q.X, head.X)
	copy(q.Y, head.Y)
	copy(q.Z, head.Z)
	copy(q.VX, head.VX)
	copy(q.VY, head.VY)
	copy(q.VZ, head.VZ)
	copy(q.Tag, head.Tag)
	for _, v := range in {
		v := v.(view)
		for _, i := range v.idx {
			q.X[at], q.Y[at], q.Z[at] = v.p.X[i], v.p.Y[i], v.p.Z[i]
			q.VX[at], q.VY[at], q.VZ[at] = v.p.VX[i], v.p.VY[i], v.p.VZ[i]
			q.Tag[at] = v.p.Tag[i]
			at++
		}
	}
	c.Barrier()
	return q
}
