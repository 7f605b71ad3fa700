// Halo pipeline: the full Level 1 → Level 2 → Level 3 analysis chain on a
// clustered snapshot, mirroring the Q Continuum analysis tasks of §4.1:
// halo identification, the center-finding split at a size threshold,
// spherical-overdensity masses seeded at the centers, subhalo finding in
// the biggest halos, and the halo mass function (the small-scale analogue
// of Figure 3).
//
//	go run ./examples/halopipeline
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/center"
	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/kdtree"
	"repro/internal/nbody"
	"repro/internal/so"
	"repro/internal/stats"
	"repro/internal/subhalo"
)

func main() {
	log.SetFlags(0)
	params := cosmo.Default()
	const (
		ng             = 32
		box            = 48.0
		splitThreshold = 400 // the paper's 300k, scaled to this tiny box
	)
	// Power-of-two particle grid needed by the IC generator: use 32³ and a
	// slightly larger box for decent statistics.
	particles, a0, err := ic.Generate(params, ic.Options{NP: 32, Box: box, ZInit: 50, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := nbody.NewSimulation(params, box, ng, particles, a0)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(1.0, 40, nil); err != nil {
		log.Fatal(err)
	}
	p := sim.P
	mass := params.ParticleMass(box, 32)
	fmt.Printf("snapshot: %d particles at z=%.2f\n", p.N(), sim.Redshift())

	// --- Halo identification (Level 1 -> catalog) ---
	linking := 0.2 * box / 32
	t0 := time.Now()
	cat, err := halo.FOF(p, box, halo.Options{LinkingLength: linking, MinSize: 10, Periodic: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFOF: %d halos in %.0f ms (largest %d particles)\n",
		len(cat.Halos), float64(time.Since(t0).Microseconds())/1000, cat.LargestCount())

	// --- Mass function (Figure 3 analogue, with the split marked) ---
	hist, err := stats.NewLogHistogram(10, float64(cat.LargestCount())*1.1, 8)
	if err != nil {
		log.Fatal(err)
	}
	for i := range cat.Halos {
		hist.Add(float64(cat.Halos[i].Count()))
	}
	fmt.Println("\nhalo mass function (log bins in particle count; o = off-loaded):")
	edges := hist.BinEdges()
	for b, c := range hist.Counts {
		if c == 0 {
			continue
		}
		mark := " "
		if edges[b] > splitThreshold {
			mark = "o"
		}
		fmt.Printf("  %7.0f - %7.0f particles: %4d halos %s\n", edges[b], edges[b+1], c, mark)
	}

	// --- Center finding with the combined-workflow split ---
	t0 = time.Now()
	centers, level2, err := cosmotools.SplitCenterFinding(p, box, cat, splitThreshold,
		center.Options{Mass: mass, Softening: 1e-3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsplit at %d particles: %d centers in-situ (%.0f ms), %d halos (%d particles) to Level 2\n",
		splitThreshold, len(centers), float64(time.Since(t0).Microseconds())/1000,
		len(level2.Spans), level2.Particles.N())

	// --- "Off-line" center finding of the Level 2 payload ---
	t0 = time.Now()
	offline, err := cosmotools.CentersForLevel2(level2, box, center.Options{Mass: mass, Softening: 1e-3})
	if err != nil {
		log.Fatal(err)
	}
	centers = append(centers, offline...)
	fmt.Printf("off-line centers for large halos: %.0f ms; %d total centers after merge\n",
		float64(time.Since(t0).Microseconds())/1000, len(centers))

	// --- Spherical overdensity masses seeded at the centers ---
	tree, err := kdtree.Build(p.X, p.Y, p.Z, box, 16)
	if err != nil {
		log.Fatal(err)
	}
	rhoMean := params.MeanMatterDensity()
	fmt.Println("\nspherical overdensity masses (Delta=200 x mean):")
	printed := 0
	for _, c := range centers {
		res, err := so.Measure(tree, c.Pos[0], c.Pos[1], c.Pos[2], so.Options{
			ParticleMass: mass, Delta: 200, RhoRef: rhoMean, MaxRadius: 3, MinParticles: 20,
		})
		if err != nil {
			continue
		}
		if printed < 5 {
			fmt.Printf("  halo %6d: M200=%.3g Msun/h  R200=%.2f Mpc/h  (%d particles; FOF had %d)\n",
				c.HaloTag, res.Mass, res.Radius, res.N, c.Count)
		}
		printed++
	}
	fmt.Printf("  (%d SO masses measured)\n", printed)

	// --- Subhalos in the largest halo ---
	big := &cat.Halos[0]
	ux, uy, uz := center.Unwrap(p.X, p.Y, p.Z, big.Indices, box)
	vx := make([]float64, big.Count())
	vy := make([]float64, big.Count())
	vz := make([]float64, big.Count())
	for k, i := range big.Indices {
		vx[k], vy[k], vz[k] = p.VX[i], p.VY[i], p.VZ[i]
	}
	t0 = time.Now()
	sub, err := subhalo.Find(ux, uy, uz, vx, vy, vz, subhalo.Options{
		Mass: mass, K: 16, MinSize: 20, Softening: 1e-3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubhalos of the largest halo (%d particles, %.0f ms, %d candidates):\n",
		big.Count(), float64(time.Since(t0).Microseconds())/1000, sub.Candidates)
	for i, sh := range sub.Subhalos {
		fmt.Printf("  subhalo %d: %d particles (unbound removed: %d)\n", i, sh.Count(), sh.Removed)
	}
}
