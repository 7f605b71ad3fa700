// Package core implements the paper's contribution: the combined in-situ
// and co-scheduling analysis workflow for large N-body simulations, plus
// the machinery to compare it against the purely in-situ and purely
// off-line alternatives (Figures 1, 3, 4 and Tables 1-4 of the paper).
//
// Real analysis kernels (internal/halo, internal/center, ...) run on real
// particle data from the bundled particle-mesh simulation at laptop scale;
// the paper-scale studies (8192³ particles on 16,384 Titan nodes) run on
// the calibrated platform model (internal/platform) over a halo population
// synthesized from the ΛCDM mass function, on a discrete-event clock
// (internal/des) with the batch scheduler and listener of internal/sched.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cosmo"
	"repro/internal/platform"
)

// PopulationBin aggregates the many small halos in one logarithmic mass
// bin: their exact identities do not matter for workflow costs, only their
// count and representative size.
type PopulationBin struct {
	// Size is the representative particle count (geometric bin centre).
	Size float64
	// Count is the number of halos in the bin.
	Count float64
}

// HaloPopulation is a (possibly synthesized) halo catalog reduced to
// particle counts: aggregated bins for the abundant small halos and an
// explicit list for the rare large ones whose individual sizes drive the
// load imbalance.
type HaloPopulation struct {
	// Bins covers halos below the explicit-sampling threshold.
	Bins []PopulationBin
	// Large lists individually sampled halo sizes (particle counts),
	// descending.
	Large []int
	// MinSize is the smallest halo retained (the FOF discard floor; 40 in
	// the paper's catalogs).
	MinSize int
}

// SynthesisOptions controls population synthesis.
type SynthesisOptions struct {
	// BoxMpch is the comoving box side in Mpc/h.
	BoxMpch float64
	// NP is particles per dimension.
	NP int
	// Z is the redshift of the population.
	Z float64
	// MinSize is the smallest halo (particles) retained.
	MinSize int
	// SampleAbove: halos with more particles than this are sampled
	// individually (Poisson per bin); smaller ones stay aggregated.
	SampleAbove int
	// MaxSize caps the largest halo considered (particles); 0 selects
	// 100x SampleAbove.
	MaxSize int
	// BinsPerDecade sets mass resolution; 0 selects 16.
	BinsPerDecade int
	// Seed drives the Poisson sampling.
	Seed int64
}

// SynthesizePopulation builds the halo population of a ΛCDM box at
// redshift z from the Press-Schechter mass function — the projection tool
// that stands in for the 8192³ halo catalogs this reproduction cannot
// compute directly. The calibration targets are the paper's: a steeply
// falling mass function with ~1e8 halos in a Q Continuum-sized box, of
// which only tens of thousands exceed 300,000 particles (Figure 3), the
// largest reaching tens of millions of particles.
func SynthesizePopulation(p cosmo.Params, o SynthesisOptions) (*HaloPopulation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if o.BoxMpch <= 0 || o.NP <= 0 {
		return nil, fmt.Errorf("core: invalid box %g / np %d", o.BoxMpch, o.NP)
	}
	if o.MinSize < 1 || o.SampleAbove < o.MinSize {
		return nil, fmt.Errorf("core: invalid sizes min %d sampleAbove %d", o.MinSize, o.SampleAbove)
	}
	binsPerDecade := o.BinsPerDecade
	if binsPerDecade <= 0 {
		binsPerDecade = 16
	}
	maxSize := o.MaxSize
	if maxSize <= 0 {
		maxSize = o.SampleAbove * 100
	} else if maxSize <= o.MinSize {
		return nil, fmt.Errorf("core: invalid sizes max %d <= min %d", maxSize, o.MinSize)
	}
	mp := p.ParticleMass(o.BoxMpch, o.NP)
	mMin := float64(o.MinSize) * mp
	mMax := float64(maxSize) * mp
	decades := math.Log10(mMax / mMin)
	nBins := int(math.Ceil(decades * float64(binsPerDecade)))
	ratio := math.Pow(10, decades/float64(nBins))
	counts := p.ExpectedHaloCounts(o.BoxMpch, mMin, ratio, nBins, o.Z)

	rng := rand.New(rand.NewSource(o.Seed))
	pop := &HaloPopulation{MinSize: o.MinSize}
	for b, expect := range counts {
		sizeLo := float64(o.MinSize) * math.Pow(ratio, float64(b))
		sizeHi := sizeLo * ratio
		sizeMid := math.Sqrt(sizeLo * sizeHi)
		if sizeMid <= float64(o.SampleAbove) {
			if expect > 0 {
				pop.Bins = append(pop.Bins, PopulationBin{Size: sizeMid, Count: expect})
			}
			continue
		}
		// Rare tail: Poisson-sample individual halos, sizes log-uniform
		// within the bin.
		n := poisson(rng, expect)
		for i := 0; i < n; i++ {
			s := sizeLo * math.Pow(ratio, rng.Float64())
			pop.Large = append(pop.Large, int(s))
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(pop.Large)))
	return pop, nil
}

// poisson draws a Poisson variate; for large means it uses the normal
// approximation (exact identity of rare-tail counts is what matters, and
// those means are small).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(math.Round(v))
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// TotalHalos returns the expected total halo count.
func (hp *HaloPopulation) TotalHalos() float64 {
	total := float64(len(hp.Large))
	for _, b := range hp.Bins {
		total += b.Count
	}
	return total
}

// TotalParticlesInHalos returns the expected number of particles residing
// in halos.
func (hp *HaloPopulation) TotalParticlesInHalos() float64 {
	total := 0.0
	for _, n := range hp.Large {
		total += float64(n)
	}
	for _, b := range hp.Bins {
		total += b.Count * b.Size
	}
	return total
}

// LargestSize returns the largest halo's particle count (0 when none).
func (hp *HaloPopulation) LargestSize() int {
	if len(hp.Large) > 0 {
		return hp.Large[0]
	}
	best := 0
	for _, b := range hp.Bins {
		if b.Count >= 0.5 && int(b.Size) > best {
			best = int(b.Size)
		}
	}
	return best
}

// CountAbove returns how many halos exceed the threshold size.
func (hp *HaloPopulation) CountAbove(threshold int) float64 {
	c := 0.0
	for _, n := range hp.Large {
		if n > threshold {
			c++
		}
	}
	for _, b := range hp.Bins {
		if b.Size > float64(threshold) {
			c += b.Count
		}
	}
	return c
}

// ParticlesAbove returns the expected particles residing in halos larger
// than the threshold — the Level 2 data volume of the combined workflow.
func (hp *HaloPopulation) ParticlesAbove(threshold int) float64 {
	total := 0.0
	for _, n := range hp.Large {
		if n > threshold {
			total += float64(n)
		}
	}
	for _, b := range hp.Bins {
		if b.Size > float64(threshold) {
			total += b.Count * b.Size
		}
	}
	return total
}

// PairSum returns Σ n² over halos with size in (minSize, maxSize]; this is
// the O(n²) center-finder work integral. maxSize <= 0 means unbounded.
func (hp *HaloPopulation) PairSum(minSize, maxSize int) float64 {
	inRange := func(n float64) bool {
		if n <= float64(minSize) {
			return false
		}
		return maxSize <= 0 || n <= float64(maxSize)
	}
	total := 0.0
	for _, n := range hp.Large {
		if inRange(float64(n)) {
			total += float64(n) * float64(n)
		}
	}
	for _, b := range hp.Bins {
		if inRange(b.Size) {
			total += b.Count * b.Size * b.Size
		}
	}
	return total
}

// NodeAssignment distributes the population across nNodes and returns the
// per-node Σn² pair counts for halos in (minSize, maxSize]. Aggregated
// bins spread evenly (they are numerous enough for the law of large
// numbers); the rare Large halos land on rng-chosen nodes — exactly the
// mechanism that produces the paper's center-finding load imbalance.
func (hp *HaloPopulation) NodeAssignment(nNodes int, minSize, maxSize int, seed int64) []float64 {
	if nNodes <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, nNodes)
	base := 0.0
	for _, b := range hp.Bins {
		if b.Size > float64(minSize) && (maxSize <= 0 || b.Size <= float64(maxSize)) {
			base += b.Count * b.Size * b.Size
		}
	}
	for i := range out {
		out[i] = base / float64(nNodes)
	}
	for _, n := range hp.Large {
		if float64(n) <= float64(minSize) {
			continue
		}
		if maxSize > 0 && n > maxSize {
			continue
		}
		out[rng.Intn(nNodes)] += float64(n) * float64(n)
	}
	return out
}

// NodeSubhaloSeconds distributes the population across nNodes and returns
// the per-node subhalo-finding time for parent halos above minHaloSize
// (the §4.2 in-situ subhalo experiment: CPU-only, n·log n per halo).
func (hp *HaloPopulation) NodeSubhaloSeconds(nNodes, minHaloSize int, costs platform.AnalysisCosts, m platform.Machine, seed int64) []float64 {
	if nNodes <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, nNodes)
	// Aggregated bins spread evenly.
	base := 0.0
	for _, b := range hp.Bins {
		if b.Size > float64(minHaloSize) {
			base += b.Count * costs.SubhaloCost(b.Size)
		}
	}
	for i := range out {
		out[i] = base / float64(nNodes) * m.CPUFactor
	}
	for _, n := range hp.Large {
		if n <= minHaloSize {
			continue
		}
		out[rng.Intn(nNodes)] += costs.SubhaloCost(float64(n)) * m.CPUFactor
	}
	return out
}
