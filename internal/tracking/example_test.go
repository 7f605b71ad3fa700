package tracking_test

import (
	"fmt"

	"repro/internal/cosmo"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/nbody"
	"repro/internal/tracking"
)

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Halos followed across snapshots (§3: "analysis tasks are carried out to
// not only capture these structures within one time snapshot but also to
// track their evolution ... Over time, halos merge and accrete mass"):
// FOF catalogs at four scale factors, linked by shared particle tags, and
// the final largest halo's main-progenitor line.
func ExampleTrack() {
	const np, box = 16, 12.0
	params := cosmo.Default()
	particles, a0, err := ic.Generate(params, ic.Options{NP: np, Box: box, ZInit: 50, Seed: 12})
	check(err)
	sim, err := nbody.NewSimulation(params, box, np, particles, a0)
	check(err)
	var prev *nbody.Particles
	var prevCat, cat *halo.Catalog
	var matches []*tracking.Matches
	for _, a := range []float64{0.5, 0.65, 0.8, 1} {
		check(sim.Run(a, 5, nil))
		p := sim.P.Clone()
		cat, err = halo.FOF(p, box, halo.Options{LinkingLength: 0.2 * box / np, MinSize: 10, Periodic: true})
		check(err)
		fmt.Printf("a = %.2f: %d halos, largest %d particles\n", a, len(cat.Halos), cat.LargestCount())
		if prev != nil {
			m, err := tracking.Match(prev, prevCat, p, cat, tracking.Options{MinShared: 5})
			check(err)
			matches = append(matches, m)
			// fmt prints a map in key order: the mergers sorted by halo tag.
			fmt.Printf("  %d links, %d orphans, mergers (halo:progenitors) %v\n", len(m.Links), len(m.Orphans), m.Mergers)
		}
		prev, prevCat = p, cat
	}
	history, err := tracking.Track(cat.Halos[0].Tag, matches)
	check(err)
	fmt.Printf("main progenitors of halo %d, earliest first: %v\n", cat.Halos[0].Tag, history.Tags)
	// Output:
	// a = 0.50: 3 halos, largest 16 particles
	// a = 0.65: 11 halos, largest 89 particles
	//   3 links, 0 orphans, mergers (halo:progenitors) map[]
	// a = 0.80: 16 halos, largest 170 particles
	//   9 links, 2 orphans, mergers (halo:progenitors) map[192:2]
	// a = 1.00: 17 halos, largest 383 particles
	//   15 links, 1 orphans, mergers (halo:progenitors) map[11:2 48:3]
	// main progenitors of halo 11, earliest first: [192 192 11]
}
