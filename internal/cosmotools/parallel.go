package cosmotools

import (
	"fmt"
	"sort"

	"repro/internal/center"
	"repro/internal/halo"
	"repro/internal/mpi"
	"repro/internal/nbody"
)

// ParallelProducts is one rank's share of a distributed in-situ analysis
// pass: the halos this rank owns, the centers it computed for halos at or
// below the split, and the Level 2 extraction of its larger halos.
type ParallelProducts struct {
	Catalog *halo.Catalog
	Centers []CenterRecord
	Level2  *Level2
}

// ParallelAnalysis runs the paper's distributed in-situ halo analysis on
// the calling rank: parallel FOF with overload exchange and ownership
// reconciliation (§3.3.1), then — per owned halo — either immediate MBP
// center finding (halos ≤ threshold) or Level 2 extraction (the combined
// workflow's off-load path). local must already be decomposed to the
// rank's slab.
func ParallelAnalysis(c *mpi.Comm, local *nbody.Particles, box, overload float64, fofOpts halo.Options, threshold int, co center.Options) (*ParallelProducts, error) {
	res, err := halo.ParallelFOF(c, local, box, overload, fofOpts)
	if err != nil {
		return nil, err
	}
	centers, level2, err := SplitCenterFinding(res.Local, box, res.Catalog, threshold, co)
	if err != nil {
		return nil, err
	}
	return &ParallelProducts{Catalog: res.Catalog, Centers: centers, Level2: level2}, nil
}

// GatherCenters collects every rank's center records onto all ranks,
// sorted by halo tag — the catalog-assembly step before Level 3 output.
func GatherCenters(c *mpi.Comm, centers []CenterRecord) []CenterRecord {
	all := c.AllGather(centers)
	var out []CenterRecord
	for _, payload := range all {
		out = append(out, payload.([]CenterRecord)...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].HaloTag < out[b].HaloTag })
	return out
}

// GatherLevel2 concatenates every rank's Level 2 extraction onto rank 0
// (other ranks receive an empty product). Spans are re-based onto the
// concatenated particle container.
func GatherLevel2(c *mpi.Comm, l2 *Level2) *Level2 {
	all := c.AllGather(l2)
	if c.Rank() != 0 {
		return &Level2{Particles: nbody.NewParticles(0)}
	}
	out := &Level2{}
	parts := make([]*nbody.Particles, len(all))
	base := 0
	for r, payload := range all {
		part := payload.(*Level2)
		parts[r] = part.Particles
		for _, span := range part.Spans {
			out.Spans = append(out.Spans, Level2Span{
				Tag:   span.Tag,
				Start: base + span.Start,
				End:   base + span.End,
			})
		}
		base += part.Particles.N()
	}
	out.Particles = nbody.Concat(parts...)
	sort.Slice(out.Spans, func(a, b int) bool { return out.Spans[a].Tag < out.Spans[b].Tag })
	return out
}

// MergeCenters reconciles the in-situ and off-line center sets into one
// complete catalog — the paper's final step: "the two files from the Titan
// and Moonlight analysis were merged to provide a complete set of halo
// centers and properties" (§4.1). Records are deduplicated by halo tag
// (off-line wins, since it supersedes any in-situ placeholder) and sorted.
func MergeCenters(inSitu, offline []CenterRecord) ([]CenterRecord, error) {
	byTag := make(map[int64]CenterRecord, len(inSitu)+len(offline))
	for _, r := range inSitu {
		if prev, dup := byTag[r.HaloTag]; dup {
			return nil, fmt.Errorf("cosmotools: duplicate in-situ center for halo %d (%d and %d particles)",
				r.HaloTag, prev.Count, r.Count)
		}
		byTag[r.HaloTag] = r
	}
	for _, r := range offline {
		byTag[r.HaloTag] = r
	}
	out := make([]CenterRecord, 0, len(byTag))
	for _, r := range byTag {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].HaloTag < out[b].HaloTag })
	return out, nil
}

// CentersForLevel2 runs the off-line half of the combined workflow over a
// gathered Level 2 product: one brute-force MBP search per span. This is
// what the co-scheduled analysis jobs execute.
func CentersForLevel2(l2 *Level2, box float64, o center.Options) ([]CenterRecord, error) {
	var out []CenterRecord
	p := l2.Particles
	for _, span := range l2.Spans {
		n := span.End - span.Start
		if n <= 0 {
			return nil, fmt.Errorf("cosmotools: empty Level 2 span for halo %d", span.Tag)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = span.Start + i
		}
		ux, uy, uz := center.Unwrap(p.X, p.Y, p.Z, idx, box)
		res, err := center.BruteForce(ux, uy, uz, o)
		if err != nil {
			return nil, fmt.Errorf("cosmotools: Level 2 centers for halo %d: %w", span.Tag, err)
		}
		gi := idx[res.Index]
		out = append(out, CenterRecord{
			HaloTag:   span.Tag,
			MBPTag:    p.Tag[gi],
			Pos:       [3]float64{p.X[gi], p.Y[gi], p.Z[gi]},
			Potential: res.Potential,
			Count:     n,
		})
	}
	return out, nil
}
