package repro_test

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"

	"repro/internal/center"
	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/gio"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/nbody"
	"repro/internal/powerspec"
)

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// The paper's core analysis chain on a small ΛCDM box, in process:
// Zel'dovich initial conditions, particle-mesh steps to z = 0, the power
// spectrum, FOF halos with the standard b = 0.2 linking length, and the
// most bound particle (MBP) centers of the largest halos.
func Example_quickstart() {
	const np, box = 16, 20.0
	particles, a0, err := ic.Generate(cosmo.Default(), ic.Options{NP: np, Box: box, ZInit: 50, Seed: 7})
	check(err)
	sim, err := nbody.NewSimulation(cosmo.Default(), box, np, particles, a0)
	check(err)
	check(sim.Run(1.0, 20, nil))
	pk, err := powerspec.Measure(sim.P, box, np, 4)
	check(err)
	fmt.Printf("k = %.3g h/Mpc\nP(k) = %.4g (Mpc/h)^3\n", pk.K, pk.P)
	cat, err := halo.FOF(sim.P, box, halo.Options{LinkingLength: 0.2 * box / np, MinSize: 10, Periodic: true})
	check(err)
	fmt.Printf("%d halos of >= 10 particles\n", len(cat.Halos))
	centers, _, err := cosmotools.SplitCenterFinding(sim.P, box, cat, 0,
		center.Options{Mass: cosmo.Default().ParticleMass(box, np), Softening: 1e-3})
	check(err)
	for _, c := range centers[:min(3, len(centers))] {
		fmt.Printf("halo %d (%d particles): MBP %d at (%.4g, %.4g, %.4g)\n", c.HaloTag, c.Count, c.MBPTag, c.Pos[0], c.Pos[1], c.Pos[2])
	}
	// Output:
	// k = [0.633 1.18 1.72 2.25] h/Mpc
	// P(k) = [92.83 28.75 9.683 3.619] (Mpc/h)^3
	// 6 halos of >= 10 particles
	// halo 23 (135 particles): MBP 792 at (4.106, 0.9362, 11.14)
	// halo 2159 (80 particles): MBP 2415 at (13.94, 7.528, 19.38)
	// halo 200 (35 particles): MBP 4041 at (19.69, 17.15, 11.92)
}

// The three workflows of §4 on one snapshot find the same centers: in situ,
// off-line from a Level 1 file of every particle, and combined (small halos
// in situ, large ones from a Level 2 file of their particles only, a
// fraction of Level 1's bytes).
func Example_workflows() {
	const np, box, split = 16, 16.0, 50
	particles, a0, err := ic.Generate(cosmo.Default(), ic.Options{NP: np, Box: box, ZInit: 50, Seed: 7})
	check(err)
	sim, err := nbody.NewSimulation(cosmo.Default(), box, np, particles, a0)
	check(err)
	check(sim.Run(1.0, 20, nil))
	opts := center.Options{Mass: cosmo.Default().ParticleMass(box, np), Softening: 1e-3}
	analyze := func(p *nbody.Particles, threshold int) (map[int64]int64, *cosmotools.Level2) {
		cat, err := halo.FOF(p, box, halo.Options{LinkingLength: 0.2 * box / np, MinSize: 10, Periodic: true})
		check(err)
		centers, l2, err := cosmotools.SplitCenterFinding(p, box, cat, threshold, opts)
		check(err)
		mbp := map[int64]int64{}
		for _, c := range centers {
			mbp[c.HaloTag] = c.MBPTag
		}
		return mbp, l2
	}
	dir, err := os.MkdirTemp("", "workflows")
	check(err)
	defer os.RemoveAll(dir)
	store := func(name string, blocks []gio.Block) ([]gio.Block, int) {
		path := filepath.Join(dir, name)
		check(gio.WriteFile(path, blocks))
		info, err := os.Stat(path)
		check(err)
		blocks, err = gio.ReadFile(path)
		check(err)
		return blocks, int(info.Size())
	}
	inSitu, _ := analyze(sim.P, 0)
	fmt.Printf("in situ: %d centers\n", len(inSitu))
	level1, l1Bytes := store("step020.l1.gio", []gio.Block{{Particles: sim.P}})
	offline, _ := analyze(gio.Merge(level1), 0)
	fmt.Printf("off-line: from a Level 1 of %d KB; same centers: %t\n", l1Bytes>>10, maps.Equal(offline, inSitu))
	combined, l2 := analyze(sim.P, split)
	small := len(combined)
	level2, l2Bytes := store("step020.l2.gio", l2.Blocks())
	l2, err = cosmotools.Level2FromBlocks(level2)
	check(err)
	large, err := cosmotools.CentersForLevel2(l2, box, opts)
	check(err)
	for _, c := range large {
		combined[c.HaloTag] = c.MBPTag
	}
	fmt.Printf("combined: %d centers in situ, %d from a Level 2 of %.3g Level 1's bytes; same centers: %t\n",
		small, len(large), float64(l2Bytes)/float64(l1Bytes), maps.Equal(combined, inSitu))
	// Output:
	// in situ: 7 centers
	// off-line: from a Level 1 of 144 KB; same centers: true
	// combined: 4 centers in situ, 3 from a Level 2 of 0.0749 Level 1's bytes; same centers: true
}
