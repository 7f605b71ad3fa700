// In-transit: a live version of the paper's hypothetical third workflow
// variant (§4.2) — Level 2 data staged through a bounded shared-memory
// device instead of the file system, with co-scheduled analysis consumers
// draining it while the simulation keeps running. The paper could not run
// this ("We did not have access to any machines that would have allowed us
// to carry out this test"); here the "separate memory device" is an
// in-process staging area with a byte capacity, so the backpressure
// dynamics (a too-small device throttles the simulation) are observable.
//
//	go run ./examples/intransit
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/center"
	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/gio"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/transit"
)

func main() {
	log.SetFlags(0)
	params := cosmo.Default()
	const (
		np             = 32
		box            = 40.0
		splitThreshold = 200
		analyzeEvery   = 8
		totalSteps     = 40
	)
	particles, a0, err := ic.Generate(params, ic.Options{NP: np, Box: box, ZInit: 50, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := nbody.NewSimulation(params, box, np, particles, a0)
	if err != nil {
		log.Fatal(err)
	}
	mass := params.ParticleMass(box, np)

	// The "separate memory device": deliberately small so staging pressure
	// is visible when large halos appear late in the run.
	stage, err := transit.NewStage(64 * 1024)
	if err != nil {
		log.Fatal(err)
	}
	// Staging metrics: counters only (deliveries run on real goroutines,
	// so per-item spans would not be deterministic — see internal/obs).
	observer := obs.New("intransit", nil)
	stage.SetObs(observer)

	// Co-scheduled analysis consumers: 2 workers drain the stage and
	// compute MBP centers for every staged halo.
	type result struct {
		step    int
		haloTag int64
		count   int
		mbpTag  int64
	}
	var mu sync.Mutex
	var results []result
	var consumerWG sync.WaitGroup
	consumerWG.Add(1)
	go func() {
		defer consumerWG.Done()
		err := transit.Consume(stage, 2, func(item transit.Item) error {
			payload := item.Payload.(stagedHalo)
			l2, err := cosmotools.Level2FromBlocks([]gio.Block{payload.block})
			if err != nil {
				return err
			}
			centers, err := cosmotools.CentersForLevel2(l2, box, center.Options{Mass: mass, Softening: 1e-3})
			if err != nil {
				return err
			}
			mu.Lock()
			for _, c := range centers {
				results = append(results, result{
					step: payload.step, haloTag: c.HaloTag, count: c.Count, mbpTag: c.MBPTag,
				})
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			log.Fatalf("consumer: %v", err)
		}
	}()

	// The simulation with in-situ analysis: small halos centered
	// immediately; large halos staged in-transit.
	fofOpts := halo.Options{LinkingLength: 0.2 * box / np, MinSize: 10, Periodic: true}
	start := time.Now()
	inSituCenters := 0
	err = sim.Run(1.0, totalSteps, func(step int) error {
		if step%analyzeEvery != 0 && step != totalSteps {
			return nil
		}
		cat, err := halo.FOF(sim.P, box, fofOpts)
		if err != nil {
			return err
		}
		centers, level2, err := cosmotools.SplitCenterFinding(sim.P, box, cat, splitThreshold,
			center.Options{Mass: mass, Softening: 1e-3})
		if err != nil {
			return err
		}
		inSituCenters += len(centers)
		// Stage each large halo as the block a Level 2 file would hold;
		// Put blocks if the device is full — the simulation visibly
		// stalls under analysis pressure.
		for b, block := range level2.Blocks() {
			if err := stage.Put(transit.Item{
				Key:     fmt.Sprintf("step%02d/halo%d", step, level2.Spans[b].Tag),
				Bytes:   gio.BytesForParticles(block.Particles.N()),
				Payload: stagedHalo{step: step, block: block},
			}); err != nil {
				return err
			}
		}
		fmt.Printf("step %2d (z=%5.2f): %2d halos; %2d small centered in-situ, %d large staged in-transit\n",
			step, sim.Redshift(), len(cat.Halos), len(centers), len(level2.Spans))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	stage.Close()
	consumerWG.Wait()

	st := stage.Stats()
	fmt.Printf("\nrun finished in %.2fs; in-situ centers: %d\n", time.Since(start).Seconds(), inSituCenters)
	fmt.Printf("staging device: %d items / %.1f KB through, peak %.1f KB of %.1f KB, %d producer stalls\n",
		st.TotalItems, float64(st.TotalBytes)/1024, float64(st.PeakUsed)/1024, 64.0, st.StallCount)
	fmt.Println("\nin-transit centers (computed while the simulation ran):")
	mu.Lock()
	for _, r := range results {
		fmt.Printf("  step %2d halo %6d (%4d particles): MBP tag %d\n", r.step, r.haloTag, r.count, r.mbpTag)
	}
	mu.Unlock()
	fmt.Println("\nstaging metrics:")
	if err := observer.Metrics().WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// stagedHalo is the in-memory Level 2 payload handed through the device.
type stagedHalo struct {
	step  int
	block gio.Block
}
