// Benchmarks regenerating every table and figure of the paper (via the
// calibrated platform model) and measuring the real analysis kernels that
// anchor it, plus ablations of the design choices called out in DESIGN.md
// §6. Key reproduced values are attached as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the paper-comparable numbers alongside the timing. The rendered
// tables themselves come from cmd/workflow-sim.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"bytes"

	"repro/internal/center"
	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/des"
	"repro/internal/dparallel"
	"repro/internal/fs"
	"repro/internal/gio"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/kdtree"
	"repro/internal/mpi"
	"repro/internal/nbody"
	"repro/internal/platform"
	"repro/internal/powerspec"
	"repro/internal/sched"
	"repro/internal/so"
	"repro/internal/subhalo"
)

// --- shared fixtures -------------------------------------------------------

var (
	snapOnce sync.Once
	snapSim  *nbody.Simulation
	snapCat  *halo.Catalog
	snapMass float64
	snapErr  error
)

const (
	snapNP  = 32
	snapBox = 40.0
)

// snapshot lazily evolves a 32³ box to z=0 and finds its halos; all
// real-kernel benchmarks share it.
func snapshot(b testing.TB) (*nbody.Simulation, *halo.Catalog, float64) {
	snapOnce.Do(func() {
		params := cosmo.Default()
		particles, a0, err := ic.Generate(params, ic.Options{NP: snapNP, Box: snapBox, ZInit: 50, Seed: 7})
		if err != nil {
			snapErr = err
			return
		}
		snapSim, snapErr = nbody.NewSimulation(params, snapBox, snapNP, particles, a0)
		if snapErr != nil {
			return
		}
		if snapErr = snapSim.Run(1.0, 40, nil); snapErr != nil {
			return
		}
		snapCat, snapErr = halo.FOF(snapSim.P, snapBox, halo.Options{
			LinkingLength: 0.2 * snapBox / snapNP, MinSize: 10, Periodic: true,
		})
		snapMass = params.ParticleMass(snapBox, snapNP)
	})
	if snapErr != nil {
		b.Fatal(snapErr)
	}
	return snapSim, snapCat, snapMass
}

// largestHalo returns the unwrapped coordinates and velocities of the
// snapshot's largest halo.
func largestHalo(b *testing.B) (x, y, z, vx, vy, vz []float64) {
	sim, cat, _ := snapshot(b)
	if len(cat.Halos) == 0 {
		b.Fatal("no halos in fixture")
	}
	h := &cat.Halos[0]
	x, y, z = center.Unwrap(sim.P.X, sim.P.Y, sim.P.Z, h.Indices, snapBox)
	vx = make([]float64, h.Count())
	vy = make([]float64, h.Count())
	vz = make([]float64, h.Count())
	for k, i := range h.Indices {
		vx[k], vy[k], vz[k] = sim.P.VX[i], sim.P.VY[i], sim.P.VZ[i]
	}
	return
}

// --- Table and figure benches (platform model) -----------------------------

// BenchmarkTable1DataLevels regenerates Table 1's data-hierarchy sizes.
func BenchmarkTable1DataLevels(b *testing.B) {
	var rows []core.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.Table1(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Level1Bytes/1e9, "L1-1024³-GB")
	b.ReportMetric(rows[1].Level1Bytes/1e12, "L1-8192³-TB")
	b.ReportMetric(rows[1].Level2Bytes/1e12, "L2-8192³-TB")
}

// BenchmarkTable2SliceTimings regenerates Table 2's per-slice node times.
func BenchmarkTable2SliceTimings(b *testing.B) {
	var rows []core.Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.Table2(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.FindMax, "z0-find-max-s")
	b.ReportMetric(last.CenterMax, "z0-center-max-s")
	b.ReportMetric(last.CenterMax/last.CenterMin, "z0-center-imbalance")
}

// BenchmarkTable3WorkflowComparison regenerates Table 3's core-hour
// comparison (paper: 193 / 356 / 135).
func BenchmarkTable3WorkflowComparison(b *testing.B) {
	s, err := core.DownscaledScenario(3)
	if err != nil {
		b.Fatal(err)
	}
	var inSitu, offline, combined float64
	for i := 0; i < b.N; i++ {
		for _, k := range []core.Kind{core.InSitu, core.Offline, core.CombinedSimple} {
			r, err := core.Run(s, k)
			if err != nil {
				b.Fatal(err)
			}
			switch k {
			case core.InSitu:
				inSitu = r.AnalysisCoreHours
			case core.Offline:
				offline = r.AnalysisCoreHours
			case core.CombinedSimple:
				combined = r.AnalysisCoreHours
			}
		}
	}
	b.ReportMetric(inSitu, "insitu-corehrs")
	b.ReportMetric(offline, "offline-corehrs")
	b.ReportMetric(combined, "combined-corehrs")
}

// BenchmarkTable4Detailed regenerates Table 4's phase breakdown for all
// five workflow variants.
func BenchmarkTable4Detailed(b *testing.B) {
	s, err := core.DownscaledScenario(3)
	if err != nil {
		b.Fatal(err)
	}
	var combined *core.Report
	for i := 0; i < b.N; i++ {
		for _, k := range core.Kinds() {
			r, err := core.Run(s, k)
			if err != nil {
				b.Fatal(err)
			}
			if k == core.CombinedSimple {
				combined = r
			}
		}
	}
	b.ReportMetric(combined.AnalysisSeconds, "combined-insitu-s")
	b.ReportMetric(combined.PostAnalysisSeconds, "combined-post-s")
	b.ReportMetric(combined.RedistributeSeconds, "combined-redist-s")
}

// BenchmarkFigure3MassFunction regenerates Figure 3's halo mass function.
func BenchmarkFigure3MassFunction(b *testing.B) {
	var total, off float64
	var err error
	for i := 0; i < b.N; i++ {
		_, total, off, err = core.Figure3(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(total, "halos")
	b.ReportMetric(off, "offloaded")
}

// BenchmarkFigure4NodeTimes regenerates Figure 4's per-node projected
// center-time histogram.
func BenchmarkFigure4NodeTimes(b *testing.B) {
	var maxBin float64
	for i := 0; i < b.N; i++ {
		h, err := core.Figure4(1)
		if err != nil {
			b.Fatal(err)
		}
		maxBin = h.Max
	}
	b.ReportMetric(maxBin, "tail-seconds")
}

// BenchmarkQContinuumStudy regenerates the §4.1 case study.
func BenchmarkQContinuumStudy(b *testing.B) {
	var r *core.QContinuumReport
	var err error
	for i := 0; i < b.N; i++ {
		r, err = core.QContinuumStudy(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MoonlightNodeHours, "moonlight-nodehrs")
	b.ReportMetric(r.SavingFactor, "saving-factor")
	b.ReportMetric(r.CombinedCoreHours/1e6, "combined-Mcorehrs")
}

// BenchmarkSubhaloImbalance regenerates the §4.2 subhalo imbalance.
func BenchmarkSubhaloImbalance(b *testing.B) {
	var slow, fast float64
	var err error
	for i := 0; i < b.N; i++ {
		slow, fast, err = core.SubhaloImbalance(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(slow, "slowest-s")
	b.ReportMetric(fast, "fastest-s")
	b.ReportMetric(slow/fast, "imbalance")
}

// --- Real kernel benches (anchor measurements) ------------------------------

// BenchmarkPMStep measures one particle-mesh KDK step of the 32³ fixture.
func BenchmarkPMStep(b *testing.B) {
	sim, _, _ := snapshot(b)
	clone := nbody.Concat(sim.P)
	params := cosmo.Default()
	s2, err := nbody.NewSimulation(params, snapBox, snapNP, clone, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s2.Step(0.0001); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFOFKernel measures the k-d tree FOF halo finder on the
// clustered fixture.
func BenchmarkFOFKernel(b *testing.B) {
	sim, _, _ := snapshot(b)
	o := halo.Options{LinkingLength: 0.2 * snapBox / snapNP, MinSize: 10, Periodic: true}
	b.ResetTimer()
	var nHalos int
	for i := 0; i < b.N; i++ {
		cat, err := halo.FOF(sim.P, snapBox, o)
		if err != nil {
			b.Fatal(err)
		}
		nHalos = len(cat.Halos)
	}
	b.ReportMetric(float64(nHalos), "halos")
	b.ReportMetric(float64(sim.P.N())/1e3, "kparticles")
}

// BenchmarkPowerSpectrum measures the CIC+FFT power-spectrum kernel.
func BenchmarkPowerSpectrum(b *testing.B) {
	sim, _, _ := snapshot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := powerspec.Measure(sim.P, snapBox, snapNP, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCenterBruteForce measures the data-parallel O(n²) MBP finder on
// the largest fixture halo (the per-pair cost that calibrates
// platform.AnalysisCosts.CenterPairSeconds).
func BenchmarkCenterBruteForce(b *testing.B) {
	x, y, z, _, _, _ := largestHalo(b)
	n := float64(len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := center.BruteForce(x, y, z, center.Options{Softening: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perPair := b.Elapsed().Seconds() / float64(b.N) / (n * n)
	b.ReportMetric(n, "particles")
	b.ReportMetric(perPair*1e9, "ns-per-pair")
}

// BenchmarkCenterAStar measures the serial A* finder on the same halo.
func BenchmarkCenterAStar(b *testing.B) {
	x, y, z, _, _, _ := largestHalo(b)
	var evaluated int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := center.AStar(x, y, z, center.Options{Softening: 1e-3})
		if err != nil {
			b.Fatal(err)
		}
		evaluated = res.Evaluated
	}
	b.ReportMetric(float64(evaluated), "exact-evals")
	b.ReportMetric(float64(len(x)), "particles")
}

// BenchmarkSubhaloKernel measures the full substructure search on the
// largest fixture halo.
func BenchmarkSubhaloKernel(b *testing.B) {
	x, y, z, vx, vy, vz := largestHalo(b)
	_, _, mass := snapshot(b)
	b.ResetTimer()
	var found int
	for i := 0; i < b.N; i++ {
		res, err := subhalo.Find(x, y, z, vx, vy, vz, subhalo.Options{
			Mass: mass, K: 16, MinSize: 20, Softening: 1e-3,
		})
		if err != nil {
			b.Fatal(err)
		}
		found = len(res.Subhalos)
	}
	b.ReportMetric(float64(found), "subhalos")
}

// BenchmarkSubhaloLargestHalos runs the substructure search on each of the
// 8 largest FOF halos of analysis_offline's snapshot (64³ particles in an
// 80 Mpc/h box, 10 steps to z = 0, seed 1), one sub-benchmark per halo:
// the measured side of §4.2's per-halo imbalance. The per-particle passes
// run on GOMAXPROCS dparallel workers, so -cpu 1,2 reads both.
func BenchmarkSubhaloLargestHalos(b *testing.B) {
	const np, box = 64, 80.0
	params := cosmo.Default()
	p, a0, err := ic.Generate(params, ic.Options{NP: np, Box: box, ZInit: 50, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := nbody.NewSimulation(params, box, np, p, a0)
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Run(1.0, 10, nil); err != nil {
		b.Fatal(err)
	}
	cat, err := halo.FOF(sim.P, box, halo.Options{LinkingLength: 0.2 * box / np, MinSize: 10, Periodic: true})
	if err != nil {
		b.Fatal(err)
	}
	o := subhalo.Options{Mass: params.ParticleMass(box, np), K: 16, MinSize: 20, Softening: 1e-3}
	for rank, h := range cat.Halos[:min(8, len(cat.Halos))] {
		x, y, z := center.Unwrap(sim.P.X, sim.P.Y, sim.P.Z, h.Indices, box)
		vx := make([]float64, h.Count())
		vy := make([]float64, h.Count())
		vz := make([]float64, h.Count())
		for k, i := range h.Indices {
			vx[k], vy[k], vz[k] = sim.P.VX[i], sim.P.VY[i], sim.P.VZ[i]
		}
		b.Run(fmt.Sprintf("halo%d-n%d", rank, h.Count()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := subhalo.Find(x, y, z, vx, vy, vz, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSOKernel measures spherical-overdensity mass estimation seeded
// at the largest halo's center of mass.
func BenchmarkSOKernel(b *testing.B) {
	sim, cat, mass := snapshot(b)
	tree, err := kdtree.Build(sim.P.X, sim.P.Y, sim.P.Z, snapBox, 16)
	if err != nil {
		b.Fatal(err)
	}
	c := cat.Halos[0].Center
	rho := cosmo.Default().MeanMatterDensity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := so.Measure(tree, c[0], c[1], c[2], so.Options{
			ParticleMass: mass, Delta: 200, RhoRef: rho, MaxRadius: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §6) -----------------------------------------------

// BenchmarkAblationFOFNaive compares the O(n²) FOF baseline against the
// k-d tree finder (BenchmarkFOFKernel) on a reduced subset — the naive
// algorithm cannot take the full fixture.
func BenchmarkAblationFOFNaive(b *testing.B) {
	sim, _, _ := snapshot(b)
	idx := make([]int, 4000)
	for i := range idx {
		idx[i] = i * sim.P.N() / len(idx)
	}
	sub := sim.P.Select(idx)
	o := halo.Options{LinkingLength: 0.2 * snapBox / snapNP, MinSize: 5, Periodic: true}
	b.Run("kdtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := halo.FOF(sub, snapBox, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := halo.NaiveFOF(sub, snapBox, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCenterFinders compares the center-finding strategies on
// the largest halo: serial brute force, parallel brute force (the PISTON
// path), and A* (the paper's pre-GPU production algorithm).
func BenchmarkAblationCenterFinders(b *testing.B) {
	x, y, z, _, _, _ := largestHalo(b)
	for _, tc := range []struct {
		name string
		opts center.Options
		fn   func([]float64, []float64, []float64, center.Options) (center.Result, error)
	}{
		{"brute-serial", center.Options{Softening: 1e-3, Backend: dparallel.Serial{}}, center.BruteForce},
		{"brute-parallel", center.Options{Softening: 1e-3, Backend: dparallel.Parallel{}}, center.BruteForce},
		{"astar", center.Options{Softening: 1e-3}, center.AStar},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tc.fn(x, y, z, tc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSplitThreshold sweeps the in-situ/off-line split and
// reports combined-workflow core hours per threshold — the design knob the
// paper fixed at 300,000.
func BenchmarkAblationSplitThreshold(b *testing.B) {
	s, err := core.DownscaledScenario(3)
	if err != nil {
		b.Fatal(err)
	}
	for _, threshold := range []int{50000, 100000, 300000, 1000000} {
		b.Run(fmt.Sprintf("threshold-%d", threshold), func(b *testing.B) {
			sc := *s
			sc.SplitThreshold = threshold
			var coreHrs float64
			for i := 0; i < b.N; i++ {
				r, err := core.Run(&sc, core.CombinedSimple)
				if err != nil {
					b.Fatal(err)
				}
				coreHrs = r.AnalysisCoreHours
			}
			b.ReportMetric(coreHrs, "corehrs")
		})
	}
}

// BenchmarkAblationBackends compares the dparallel backends on the
// potential-map workload (the portability claim of the PISTON layer).
func BenchmarkAblationBackends(b *testing.B) {
	x, y, z, _, _, _ := largestHalo(b)
	for _, backend := range []dparallel.Backend{
		dparallel.Serial{},
		dparallel.Parallel{NumWorkers: 2},
		dparallel.Parallel{},
	} {
		b.Run(backend.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := center.BruteForce(x, y, z, center.Options{Softening: 1e-3, Backend: backend}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOverload measures parallel FOF cost as the overload
// width grows: wider ghosts mean more duplicated work (the trade-off
// §3.3.1 sets against halo completeness).
func BenchmarkAblationOverload(b *testing.B) {
	sim, _, _ := snapshot(b)
	o := halo.Options{LinkingLength: 0.2 * snapBox / snapNP, MinSize: 10}
	for _, overload := range []float64{1, 2.5, 5} {
		b.Run(fmt.Sprintf("overload-%.1f", overload), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.RunRanks(4, func(c *mpi.Comm) error {
					var idx []int
					for j := 0; j < sim.P.N(); j++ {
						if nbody.SlabOwner(sim.P.X[j], c.Size(), snapBox) == c.Rank() {
							idx = append(idx, j)
						}
					}
					_, err := halo.ParallelFOF(c, sim.P.Select(idx), snapBox, overload, o)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationListenerPollRate measures co-scheduling latency (file
// landing -> analysis start) versus poll interval on the discrete-event
// scheduler.
func BenchmarkAblationListenerPollRate(b *testing.B) {
	for _, poll := range []float64{1, 30, 300} {
		b.Run(fmt.Sprintf("poll-%.0fs", poll), func(b *testing.B) {
			var latency float64
			for i := 0; i < b.N; i++ {
				var sim des.Sim
				storage := fs.New(&sim, "lustre")
				cluster, err := sched.NewCluster(&sim, platform.Titan())
				if err != nil {
					b.Fatal(err)
				}
				var started float64
				l := &sched.Listener{
					Sim: &sim, FS: storage, Cluster: cluster,
					Prefix: "out/", PollInterval: poll,
					MakeJob: func(path string, f *fs.File) *sched.Job {
						return &sched.Job{Name: path, Nodes: 4, Duration: 100,
							OnStart: func(j *sched.Job) { started = j.StartTime }}
					},
				}
				if err := l.Start(); err != nil {
					b.Fatal(err)
				}
				landing := 500.0
				sim.At(landing, func() { storage.Write("out/step.gio", 1e9, 0, nil, nil) })
				sim.At(5000, l.Stop)
				sim.Run()
				latency = started - landing
			}
			b.ReportMetric(latency, "latency-s")
		})
	}
}

// --- Additional kernel benches (extension packages) --------------------------

// BenchmarkProfileAndShape measures the Level 3 property kernels on the
// largest fixture halo.
func BenchmarkProfileAndShape(b *testing.B) {
	sim, cat, _ := snapshot(b)
	hl := &cat.Halos[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cosmotools.MeasureProperties(sim.P, snapBox, hl, 12, 0.05); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(hl.Count()), "particles")
}

// BenchmarkCheckpointRoundTrip measures full-precision state save/load.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	sim, _, _ := snapshot(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := gio.WriteCheckpoint(&buf, sim); err != nil {
			b.Fatal(err)
		}
		if _, err := gio.ReadCheckpoint(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkParallelAnalysisRanks measures the distributed in-situ pipeline
// at several rank counts (strong scaling of the rank-goroutine runtime).
func BenchmarkParallelAnalysisRanks(b *testing.B) {
	sim, _, mass := snapshot(b)
	fofOpts := halo.Options{LinkingLength: 0.2 * snapBox / snapNP, MinSize: 10}
	co := center.Options{Mass: mass, Softening: 1e-3}
	for _, ranks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ranks-%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.RunRanks(ranks, func(c *mpi.Comm) error {
					var idx []int
					for j := 0; j < sim.P.N(); j++ {
						if nbody.SlabOwner(sim.P.X[j], c.Size(), snapBox) == c.Rank() {
							idx = append(idx, j)
						}
					}
					_, err := cosmotools.ParallelAnalysis(c, sim.P.Select(idx), snapBox, 2.5, fofOpts, 300, co)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDispatch quantifies the paper's §3.1 remark that the
// virtual-function (here: interface) dispatch overhead of the in-situ
// framework is negligible against any real analysis body.
func BenchmarkAblationDispatch(b *testing.B) {
	sim, _, _ := snapshot(b)
	ctx := cosmotools.NewContext(1, 1, snapBox, 1, sim.P)
	var m cosmotools.Manager
	noop := &noopAlgorithm{}
	if err := m.Register(noop); err != nil {
		b.Fatal(err)
	}
	b.Run("manager-dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := m.Execute(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := noop.Execute(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type noopAlgorithm struct{}

func (n *noopAlgorithm) Name() string                           { return "noop" }
func (n *noopAlgorithm) SetParameters(map[string]string) error  { return nil }
func (n *noopAlgorithm) ShouldExecute(*cosmotools.Context) bool { return true }
func (n *noopAlgorithm) Execute(ctx *cosmotools.Context) error  { return nil }

// BenchmarkAblationSubtreeMerge quantifies the §3.3.1 bounding-box
// shortcut: FOF with whole-subtree merging versus per-pair distance tests
// only.
func BenchmarkAblationSubtreeMerge(b *testing.B) {
	sim, _, _ := snapshot(b)
	base := halo.Options{LinkingLength: 0.2 * snapBox / snapNP, MinSize: 10, Periodic: true}
	b.Run("subtree-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := halo.FOF(sim.P, snapBox, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pairwise-only", func(b *testing.B) {
		o := base
		o.DisableSubtreeMerge = true
		for i := 0; i < b.N; i++ {
			if _, err := halo.FOF(sim.P, snapBox, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}
