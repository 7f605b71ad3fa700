package halo

import (
	"repro/internal/mpi"
	"repro/internal/nbody"
)

// ParallelResult is one rank's share of a distributed FOF pass.
type ParallelResult struct {
	// Catalog holds the halos this rank owns after reconciliation.
	Catalog *Catalog
	// Local is the extended particle set (primary + overload copies) that
	// Catalog's halo indices reference.
	Local *nbody.Particles
}

// ParallelFOF runs the paper's distributed halo-finding procedure on the
// calling rank: exchange overload copies with the slab neighbours, run the
// serial k-d tree FOF over primary+ghost particles, then resolve halos
// "found in whole or in part by multiple processes" to a unique owner
// (§3.3.1). Ownership goes to the rank whose primary zone holds the halo's
// minimum-tag particle; with an overload width of at least the maximum
// feasible halo extent that rank is guaranteed to see the halo in its
// entirety, so each halo appears exactly once globally, complete.
//
// local must already be decomposed (every particle within the rank's
// slab). overload is the ghost-zone width.
func ParallelFOF(c *mpi.Comm, local *nbody.Particles, box, overload float64, o Options) (*ParallelResult, error) {
	ext, err := nbody.WithOverload(c, local, box, overload)
	if err != nil {
		return nil, err
	}
	o.Periodic = true // rank-local linking uses true periodic distances
	cat, err := FOF(ext, box, o)
	if err != nil {
		return nil, err
	}
	// Keep only halos whose min-tag particle is a primary particle. Local
	// particles occupy ext[0:local.N()), ghosts follow, so the primary test
	// is an index comparison on the first member carrying the halo's tag.
	owned := cat.Halos[:0]
	for _, h := range cat.Halos {
		for _, i := range h.Indices {
			if ext.Tag[i] == h.Tag {
				if i < local.N() {
					owned = append(owned, h)
				}
				break
			}
		}
	}
	cat.Halos = owned
	c.Barrier()
	return &ParallelResult{Catalog: cat, Local: ext}, nil
}
