// Workflows: a real-compute (not modelled) comparison of the paper's three
// analysis strategies on one snapshot — the laptop-scale analogue of
// Table 4.
//
//   - in-situ: analysis runs directly on the in-memory particles.
//   - off-line: particles are written to a gio file (Level 1), read back,
//     redistributed across in-process MPI ranks, then analyzed.
//   - combined: halos found in-situ; centers for halos <= the split found
//     in-situ; particles of larger halos written as Level 2, read back and
//     analyzed by a separate (smaller) "job".
//
// Every phase is timed for real; the same orderings the paper reports
// should emerge: off-line pays the Level 1 I/O + redistribution, the
// combined variant moves a fraction of the data and splits the work.
//
//	go run ./examples/workflows
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/center"
	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/gio"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/mpi"
	"repro/internal/nbody"
)

const (
	np             = 32
	box            = 40.0
	splitThreshold = 300
	ranks          = 4
)

func main() {
	log.SetFlags(0)
	params := cosmo.Default()
	particles, a0, err := ic.Generate(params, ic.Options{NP: np, Box: box, ZInit: 50, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := nbody.NewSimulation(params, box, np, particles, a0)
	if err != nil {
		log.Fatal(err)
	}
	simStart := time.Now()
	if err := sim.Run(1.0, 40, nil); err != nil {
		log.Fatal(err)
	}
	simSec := time.Since(simStart).Seconds()
	mass := params.ParticleMass(box, np)
	fmt.Printf("simulation: %d particles to z=0 in %.2fs\n\n", sim.P.N(), simSec)

	dir, err := os.MkdirTemp("", "workflows")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- Workflow 1: purely in-situ ---
	t0 := time.Now()
	cat, centers := analyze(sim.P, box, mass, 0)
	inSitu := time.Since(t0).Seconds()
	fmt.Printf("in-situ:   analysis %.3fs (%d halos, %d centers), no I/O, no redistribution\n",
		inSitu, len(cat.Halos), len(centers))

	// --- Workflow 2: purely off-line ---
	l1Path := filepath.Join(dir, "level1.gio")
	t0 = time.Now()
	if err := gio.WriteFile(l1Path, []gio.Block{{Rank: 0, Particles: sim.P}}); err != nil {
		log.Fatal(err)
	}
	writeSec := time.Since(t0).Seconds()

	t0 = time.Now()
	blocks, err := gio.ReadFile(l1Path)
	if err != nil {
		log.Fatal(err)
	}
	merged := gio.Merge(blocks)
	readSec := time.Since(t0).Seconds()

	// Redistribute across in-process MPI ranks — the alltoall the paper's
	// off-line analysis pays after every read.
	t0 = time.Now()
	var redistributed int
	err = mpi.RunRanks(ranks, func(c *mpi.Comm) error {
		// Rank 0 starts with everything (as if read from one file);
		// Distribute sends each particle to its slab owner.
		local := nbody.NewParticles(0)
		if c.Rank() == 0 {
			local = merged
		}
		mine, err := nbody.Distribute(c, local, box)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			redistributed = mine.N()
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	redistSec := time.Since(t0).Seconds()

	t0 = time.Now()
	catOff, centersOff := analyze(merged, box, mass, 0)
	offAnalysis := time.Since(t0).Seconds()
	info, err := os.Stat(l1Path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("off-line:  write %.3fs + read %.3fs + redistribute %.3fs + analysis %.3fs  (Level 1 = %.1f MB; rank 0 kept %d)\n",
		writeSec, readSec, redistSec, offAnalysis, float64(info.Size())/1e6, redistributed)
	if len(catOff.Halos) != len(cat.Halos) || len(centersOff) != len(centers) {
		log.Fatalf("off-line results diverge: %d/%d halos, %d/%d centers",
			len(catOff.Halos), len(cat.Halos), len(centersOff), len(centers))
	}

	// --- Workflow 3: combined in-situ/off-line ---
	t0 = time.Now()
	catC, err := halo.FOF(sim.P, box, halo.Options{
		LinkingLength: 0.2 * box / np, MinSize: 10, Periodic: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	centersSmall, level2, err := cosmotools.SplitCenterFinding(sim.P, box, catC, splitThreshold,
		center.Options{Mass: mass, Softening: 1e-3})
	if err != nil {
		log.Fatal(err)
	}
	inSituPart := time.Since(t0).Seconds()

	l2Path := filepath.Join(dir, "level2.gio")
	t0 = time.Now()
	if err := gio.WriteFile(l2Path, level2.Blocks()); err != nil {
		log.Fatal(err)
	}
	l2WriteSec := time.Since(t0).Seconds()

	t0 = time.Now()
	l2Blocks, err := gio.ReadFile(l2Path)
	if err != nil {
		log.Fatal(err)
	}
	l2Read, err := cosmotools.Level2FromBlocks(l2Blocks)
	if err != nil {
		log.Fatal(err)
	}
	centersLarge, err := cosmotools.CentersForLevel2(l2Read, box, center.Options{Mass: mass, Softening: 1e-3})
	if err != nil {
		log.Fatal(err)
	}
	postSec := time.Since(t0).Seconds()
	l2Info, err := os.Stat(l2Path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("combined:  in-situ %.3fs (%d small centers) + L2 write %.3fs + post %.3fs (%d large centers)  (Level 2 = %.2f MB, %.0f%% of Level 1)\n",
		inSituPart, len(centersSmall), l2WriteSec, postSec, len(centersLarge),
		float64(l2Info.Size())/1e6, 100*float64(l2Info.Size())/float64(info.Size()))

	fmt.Println("\nthe paper's orderings, observed with real compute:")
	offTotal := writeSec + readSec + redistSec + offAnalysis
	combTotal := inSituPart + l2WriteSec + postSec
	fmt.Printf("  off-line total  %.3fs  >  in-situ %.3fs (I/O + redistribution overhead)\n", offTotal, inSitu)
	fmt.Printf("  combined total  %.3fs; Level 2 moved %.0fx less data than Level 1\n",
		combTotal, float64(info.Size())/float64(l2Info.Size()))
}

// analyze runs FOF + centers for every halo at or below threshold (0: all).
func analyze(p *nbody.Particles, boxSize, mass float64, threshold int) (*halo.Catalog, []cosmotools.CenterRecord) {
	cat, err := halo.FOF(p, boxSize, halo.Options{
		LinkingLength: 0.2 * boxSize / np, MinSize: 10, Periodic: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	centers, _, err := cosmotools.SplitCenterFinding(p, boxSize, cat, threshold,
		center.Options{Mass: mass, Softening: 1e-3})
	if err != nil {
		log.Fatal(err)
	}
	return cat, centers
}
