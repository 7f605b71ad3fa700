package nbody

import "repro/internal/mpi"

// referenceDistribute is Distribute as it was before ranks exchanged
// views: each destination gets a Select copy of its particles, and the
// receiver concatenates what arrives in source rank order. Distribute
// must equal it column for column.
func referenceDistribute(c *mpi.Comm, local *Particles, box float64) *Particles {
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
	return Concat(parts...)
}

// referenceGhosts is the ghost exchange as it was before WithOverload:
// Select copies of the edge particles to each neighbour, concatenated in
// source rank order. WithOverload must equal Concat(local, ghosts).
func referenceGhosts(c *mpi.Comm, local *Particles, box, overload float64) *Particles {
	size, rank := c.Size(), c.Rank()
	if size == 1 {
		return NewParticles(0)
	}
	lo, hi := SlabBounds(rank, size, box)
	left := (rank - 1 + size) % size
	right := (rank + 1) % size
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
	return Concat(parts...)
}
