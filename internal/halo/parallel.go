package halo

import (
	"fmt"

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
	// PrimaryCount is the number of particles in the rank's primary zone
	// (the first PrimaryCount entries of Local).
	PrimaryCount int
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
	ghosts, err := nbody.ExchangeOverload(c, local, box, overload)
	if err != nil {
		return nil, err
	}
	ext := nbody.Concat(local, ghosts)
	o.Periodic = true // rank-local linking uses true periodic distances
	cat, err := FOF(ext, box, o)
	if err != nil {
		return nil, err
	}
	// Keep only halos whose min-tag particle is a primary particle. Local
	// particles occupy ext[0:local.N()), ghosts follow, so the primary test
	// is an index comparison.
	owned := cat.Halos[:0]
	for _, h := range cat.Halos {
		idx, ok := indexOfTag(ext, h.Indices, h.Tag)
		if !ok {
			return nil, fmt.Errorf("halo: tag %d not found among members", h.Tag)
		}
		if idx < local.N() {
			owned = append(owned, h)
		}
	}
	cat.Halos = owned
	c.Barrier()
	return &ParallelResult{Catalog: cat, Local: ext, PrimaryCount: local.N()}, nil
}

func indexOfTag(p *nbody.Particles, idx []int, tag int64) (int, bool) {
	for _, i := range idx {
		if p.Tag[i] == tag {
			return i, true
		}
	}
	return -1, false
}

// GatherCounts collects every rank's halo particle counts onto all ranks,
// concatenated in rank order — the inexpensive global view used for the
// workload split decision (§4.1's automated threshold discussion needs the
// global largest halo mass m_max_sim).
func GatherCounts(c *mpi.Comm, cat *Catalog) []int {
	counts := make([]int, len(cat.Halos))
	for i := range cat.Halos {
		counts[i] = cat.Halos[i].Count()
	}
	all := c.AllGather(counts)
	var out []int
	for _, payload := range all {
		out = append(out, payload.([]int)...)
	}
	return out
}
