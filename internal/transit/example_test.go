package transit_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/center"
	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/gio"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/nbody"
	"repro/internal/transit"
)

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// The in-transit variant the paper could not run (§4.2): every few steps
// the simulation centers small halos in situ and stages the Level 2
// particles of the large ones on a bounded memory device. Two co-scheduled
// consumers drain it and center those halos while the simulation runs on.
func ExampleConsume() {
	const np, box, split = 16, 12.0, 60
	params := cosmo.Default()
	particles, a0, err := ic.Generate(params, ic.Options{NP: np, Box: box, ZInit: 50, Seed: 8})
	check(err)
	sim, err := nbody.NewSimulation(params, box, np, particles, a0)
	check(err)
	opts := center.Options{Mass: params.ParticleMass(box, np), Softening: 1e-3}
	stage, err := transit.NewStage(16 << 10)
	check(err)
	var mu sync.Mutex
	var results []string
	consumed := make(chan error)
	go func() {
		consumed <- transit.Consume(stage, 2, func(item transit.Item) error {
			centers, err := cosmotools.CentersForLevel2(item.Payload.(*cosmotools.Level2), box, opts)
			mu.Lock()
			defer mu.Unlock()
			for _, c := range centers { // padded, so sorting orders by (step, halo tag)
				results = append(results, fmt.Sprintf("%s halo %4d (%d particles): MBP %d", item.Key, c.HaloTag, c.Count, c.MBPTag))
			}
			return err
		})
	}()
	check(sim.Run(1.0, 20, func(step int) error {
		if step%5 == 0 {
			cat, err := halo.FOF(sim.P, box, halo.Options{LinkingLength: 0.2 * box / np, MinSize: 10, Periodic: true})
			check(err)
			centers, level2, err := cosmotools.SplitCenterFinding(sim.P, box, cat, split, opts)
			check(err)
			fmt.Printf("step %d: %d small halos centered in situ, %d large staged\n", step, len(centers), len(level2.Spans))
			key := fmt.Sprintf("step %2d", step)
			check(stage.Put(transit.Item{Key: key, Bytes: gio.BytesForParticles(level2.Particles.N()), Payload: level2}))
		}
		return nil
	}))
	stage.Close()
	check(<-consumed)
	st := stage.Stats()
	fmt.Printf("staged %d items, %d bytes\n", st.TotalItems, st.TotalBytes)
	slices.Sort(results)
	fmt.Println(strings.Join(results, "\n"))
	// Output:
	// step 5: 0 small halos centered in situ, 0 large staged
	// step 10: 4 small halos centered in situ, 1 large staged
	// step 15: 6 small halos centered in situ, 2 large staged
	// step 20: 11 small halos centered in situ, 2 large staged
	// staged 4 items, 24012 bytes
	// step 10 halo  530 (100 particles): MBP 1570
	// step 15 halo  274 (173 particles): MBP 1281
	// step 15 halo  283 (63 particles): MBP 1291
	// step 20 halo   17 (263 particles): MBP 1825
	// step 20 halo   30 (68 particles): MBP 1052
}
