package cosmotools_test

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/center"
	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/kdtree"
	"repro/internal/nbody"
	"repro/internal/powerspec"
	"repro/internal/so"
	"repro/internal/stats"
	"repro/internal/subhalo"
)

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// The Level 1 → Level 2 → Level 3 chain of the Q Continuum analysis
// (§4.1): FOF halos and their mass function (Figure 3), MBP centers in situ
// below the split and from Level 2 above it, SO masses seeded at those
// centers, and the subhalos of the largest halo.
func ExampleSplitCenterFinding() {
	const np, box, split = 16, 16.0, 40
	params := cosmo.Default()
	particles, a0, err := ic.Generate(params, ic.Options{NP: np, Box: box, ZInit: 50, Seed: 12})
	check(err)
	sim, err := nbody.NewSimulation(params, box, np, particles, a0)
	check(err)
	check(sim.Run(1.0, 20, nil))
	p, mass := sim.P, params.ParticleMass(box, np)
	cat, err := halo.FOF(p, box, halo.Options{LinkingLength: 0.2 * box / np, MinSize: 10, Periodic: true})
	check(err)
	hist, err := stats.NewLogHistogram(10, 1000, 6)
	check(err)
	for i := range cat.Halos {
		hist.Add(float64(cat.Halos[i].Count()))
	}
	fmt.Printf("halos per bin of particle count %.3g: %v\n", hist.BinEdges(), hist.Counts)

	opts := center.Options{Mass: mass, Softening: 1e-3}
	centers, level2, err := cosmotools.SplitCenterFinding(p, box, cat, split, opts)
	check(err)
	fmt.Printf("split at %d particles: %d centers in situ, %d halos (%d particles) to Level 2\n",
		split, len(centers), len(level2.Spans), level2.Particles.N())
	offline, err := cosmotools.CentersForLevel2(level2, box, opts)
	check(err)
	tree, err := kdtree.Build(p.X, p.Y, p.Z, box, 16)
	check(err)
	for _, c := range append(offline, centers...) {
		res, err := so.Measure(tree, c.Pos[0], c.Pos[1], c.Pos[2], so.Options{
			ParticleMass: mass, Delta: 200, RhoRef: params.MeanMatterDensity(), MaxRadius: 3, MinParticles: 20,
		})
		if err == nil {
			fmt.Printf("halo %d (%d particles): M200 = %.3g Msun/h, R200 = %.3g Mpc/h\n", c.HaloTag, c.Count, res.Mass, res.Radius)
		}
	}
	big := &cat.Halos[0]
	ux, uy, uz := center.Unwrap(p.X, p.Y, p.Z, big.Indices, box)
	v := p.Select(big.Indices)
	sub, err := subhalo.Find(ux, uy, uz, v.VX, v.VY, v.VZ, subhalo.Options{Mass: mass, K: 16, MinSize: 10, Softening: 1e-3})
	check(err)
	fmt.Printf("halo %d: %d subhalo candidates, %d bound\n", big.Tag, sub.Candidates, len(sub.Subhalos))
	// Output:
	// halos per bin of particle count [10 21.5 46.4 100 215 464 1e+03]: [12 5 1 1 1 0]
	// split at 40 particles: 17 centers in situ, 3 halos (456 particles) to Level 2
	// halo 176 (275 particles): M200 = 1.38e+13 Msun/h, R200 = 0.606 Mpc/h
	// halo 11 (132 particles): M200 = 2.57e+12 Msun/h, R200 = 0.342 Mpc/h
	// halo 176: 5 subhalo candidates, 1 bound
}

// extremes is a user-written in-situ analysis: the extremes of the
// density contrast on a coarse grid, a cheap sign of structure forming.
type extremes struct{ sched cosmotools.EverySchedule }

func (e *extremes) Name() string                             { return "extremes" }
func (e *extremes) ShouldExecute(c *cosmotools.Context) bool { return e.sched.ShouldRun(c.Step) }

func (e *extremes) SetParameters(params map[string]string) (err error) {
	e.sched, err = cosmotools.MaybeParseSchedule(params, e.sched)
	return err
}

func (e *extremes) Execute(ctx *cosmotools.Context) error {
	g, err := grid.NewScalar(8, ctx.Box)
	if err != nil {
		return err
	}
	g.AssignCIC(ctx.Particles.X, ctx.Particles.Y, ctx.Particles.Z)
	if err := g.ToDensityContrast(); err != nil {
		return err
	}
	ctx.Outputs["extremes/minmax"] = [2]float64{slices.Min(g.Data), slices.Max(g.Data)}
	return nil
}

// A custom algorithm registered beside the standard ones and all steered by
// one config text (§3.1: "extensible to support new analysis algorithms,
// and ... easily configurable in the problem setup").
func ExampleManager() {
	const np, box = 16, 16.0
	const config = `
[extremes]
every = 5
[powerspectrum]
steps = 10, 20
bins = 4
[halofinder]
steps = 20
`
	params := cosmo.Default()
	particles, a0, err := ic.Generate(params, ic.Options{NP: np, Box: box, ZInit: 50, Seed: 21})
	check(err)
	sim, err := nbody.NewSimulation(params, box, np, particles, a0)
	check(err)
	m, err := cosmotools.NewStandardManager(nil, box, np, np)
	check(err)
	check(m.Register(&extremes{}))
	cfg, err := cosmotools.ParseConfig(strings.NewReader(config))
	check(err)
	check(m.Configure(cfg))
	check(sim.Run(1.0, 20, func(step int) error {
		ctx := cosmotools.NewContext(step, sim.A, box, params.ParticleMass(box, np), sim.P)
		check(m.Execute(ctx))
		if v, ok := ctx.Outputs["extremes/minmax"].([2]float64); ok {
			fmt.Printf("step %d: density contrast in [%.3g, %.3g]\n", step, v[0], v[1])
		}
		if pk, ok := ctx.Outputs["powerspectrum/pk"].(*powerspec.Result); ok {
			fmt.Printf("step %d: P(k = %.3g) = %.4g\n", step, pk.K[0], pk.P[0])
		}
		if cat, ok := ctx.Outputs["halofinder/catalog"].(*halo.Catalog); ok {
			fmt.Printf("step %d: %d halos, largest %d particles\n", step, len(cat.Halos), cat.LargestCount())
		}
		return nil
	}))
	// Output:
	// step 5: density contrast in [-0.641, 1.84]
	// step 10: density contrast in [-0.795, 4.36]
	// step 10: P(k = 0.792) = 20.41
	// step 15: density contrast in [-0.854, 6.49]
	// step 20: density contrast in [-0.878, 7.83]
	// step 20: P(k = 0.792) = 45.17
	// step 20: 5 halos, largest 108 particles
}
