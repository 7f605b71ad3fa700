// In-situ: writing a custom CosmoTools algorithm and driving a simulation
// with a config-steered analysis pipeline — the extension path §3.1
// describes ("extensible to support new analysis algorithms, and ...
// easily configurable in the problem setup, even while the simulation is
// running for computational steering").
//
// The custom algorithm below tracks the box's density extremes over time;
// the standard power spectrum and halo finder run alongside at cadences
// set by an inline CosmoTools config.
//
//	go run ./examples/insitu
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/nbody"
	"repro/internal/powerspec"
)

// densityExtremes is a user-defined in-situ analysis: it deposits the
// particles on a coarse grid and records the highest and lowest density
// contrast — a cheap proxy for "is interesting structure forming yet?"
// that a scientist might use to steer output cadence mid-run.
type densityExtremes struct {
	sched cosmotools.EverySchedule
	grid  int
	// History of (step, min delta, max delta).
	History [][3]float64
}

func (d *densityExtremes) Name() string { return "extremes" }

func (d *densityExtremes) SetParameters(params map[string]string) error {
	sched, err := cosmotools.MaybeParseSchedule(params, d.sched)
	if err != nil {
		return err
	}
	d.sched = sched
	if d.grid, err = cosmotools.IntParam(params, "grid", 16); err != nil {
		return err
	}
	return nil
}

func (d *densityExtremes) ShouldExecute(ctx *cosmotools.Context) bool {
	return d.sched.ShouldRun(ctx.Step)
}

func (d *densityExtremes) Execute(ctx *cosmotools.Context) error {
	g, err := grid.NewScalar(d.grid, ctx.Box)
	if err != nil {
		return err
	}
	for i := 0; i < ctx.Particles.N(); i++ {
		g.DepositCIC(ctx.Particles.X[i], ctx.Particles.Y[i], ctx.Particles.Z[i], 1)
	}
	if err := g.ToDensityContrast(); err != nil {
		return err
	}
	lo, hi := g.Data[0], g.Data[0]
	for _, v := range g.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	d.History = append(d.History, [3]float64{float64(ctx.Step), lo, hi})
	ctx.Outputs["extremes/minmax"] = [2]float64{lo, hi}
	return nil
}

const configText = `
# CosmoTools steering config: cadences and parameters per tool.
[extremes]
every = 5
grid = 16

[powerspectrum]
steps = 20, 40
grid = 32
bins = 8

[halofinder]
steps = 40
linking_length = 0.25
min_size = 10
`

func main() {
	log.SetFlags(0)
	params := cosmo.Default()
	const (
		np    = 32
		box   = 40.0
		steps = 40
	)
	particles, a0, err := ic.Generate(params, ic.Options{NP: np, Box: box, ZInit: 50, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := nbody.NewSimulation(params, box, np, particles, a0)
	if err != nil {
		log.Fatal(err)
	}

	// Register the standard tools plus the custom one, then configure all
	// three from the same config text an input deck would point at.
	var manager cosmotools.Manager
	extremes := &densityExtremes{}
	for _, a := range []cosmotools.Algorithm{
		cosmotools.NewPowerSpectrum(),
		cosmotools.NewHaloFinder(),
		extremes,
	} {
		if err := manager.Register(a); err != nil {
			log.Fatal(err)
		}
	}
	cfg, err := cosmotools.ParseConfig(strings.NewReader(configText))
	if err != nil {
		log.Fatal(err)
	}
	if err := manager.Configure(cfg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered algorithms: %v\n\n", manager.Algorithms())

	mass := params.ParticleMass(box, np)
	err = sim.Run(1.0, steps, func(step int) error {
		ctx := cosmotools.NewContext(step, sim.A, box, mass, sim.P)
		if err := manager.Execute(ctx); err != nil {
			return err
		}
		if mm, ok := ctx.Outputs["extremes/minmax"]; ok {
			v := mm.([2]float64)
			fmt.Printf("step %2d (z=%5.2f): delta in [%6.2f, %7.2f]\n", step, ctx.Redshift, v[0], v[1])
		}
		if pkAny, ok := ctx.Outputs["powerspectrum/pk"]; ok {
			pk := pkAny.(*powerspec.Result)
			fmt.Printf("step %2d: P(k) measured at %d bins; P(k1)=%.1f\n", step, len(pk.K), pk.P[0])
		}
		if catAny, ok := ctx.Outputs["halofinder/catalog"]; ok {
			cat := catAny.(*halo.Catalog)
			fmt.Printf("step %2d: %d halos, largest %d particles\n", step, len(cat.Halos), cat.LargestCount())
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\ndensity extreme history (the custom algorithm's product):")
	for _, h := range extremes.History {
		fmt.Printf("  step %2.0f: [%6.2f, %7.2f]\n", h[0], h[1], h[2])
	}
}
