package main

import (
	"bytes"
	"fmt"
	iofs "io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/center"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/des"
	"repro/internal/dparallel"
	"repro/internal/fault"
	"repro/internal/fft"
	"repro/internal/fs"
	"repro/internal/gio"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/integrity"
	"repro/internal/kdtree"
	"repro/internal/mpi"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/powerspec"
	"repro/internal/sched"
	"repro/internal/so"
	"repro/internal/subhalo"
	"repro/internal/supervise"
	"repro/internal/transit"
)

// The layer probes time each package from outside, through its public
// API, on inputs generated from the seed at fixed sizes. They give the
// named per-layer numbers a workload's own call graph cannot expose (FOF
// inside HaloFinder.Execute, fs.List inside Listener.sweep, supervision
// inside Campaign). Every traced run executes all of them, whatever its
// workload, so each per-layer metric is a fresh measurement in every run.

// probes collects the metrics; the first error stops the run.
type probes struct {
	ms []metric
}

func (p *probes) add(name string, value float64, unit string) {
	p.ms = append(p.ms, metric{name, value, unit})
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timed returns the median wall time of reps calls of fn.
func timed(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for r := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[r] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

// perCall times n back-to-back calls of fn and returns the mean per call:
// for calls too short for one clock read each.
func perCall(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(n)
}

// mallocsOf counts the heap objects fn allocates.
func mallocsOf(fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), err
}

// pairedOverhead runs base and layered alternately and returns the median
// of the paired differences, so drift in machine speed cancels.
func pairedOverhead(reps int, base, layered func() error) (time.Duration, error) {
	diffs := make([]float64, reps)
	for r := range diffs {
		t0 := time.Now()
		if err := base(); err != nil {
			return 0, err
		}
		t1 := time.Now()
		if err := layered(); err != nil {
			return 0, err
		}
		diffs[r] = float64(time.Since(t1) - t1.Sub(t0))
	}
	return time.Duration(median(diffs)), nil
}

// runProbes measures every layer and returns the metrics in print order.
func runProbes(e *env) ([]metric, error) {
	p := &probes{}
	dir, err := os.MkdirTemp(e.workdir, "probes-")
	if err != nil {
		return nil, err
	}
	for _, group := range []func(*env, string, *probes) error{
		probeModel, probeEngine, probePersistence, probeKernels, probeIO,
	} {
		if err := group(e, dir, p); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	return p.ms, os.RemoveAll(dir)
}

// --- cosmo, core (model) ----------------------------------------------------

func probeModel(e *env, _ string, p *probes) error {
	rng := rand.New(rand.NewSource(e.seed))
	params := cosmo.Default()
	radii := make([]float64, 64)
	for i := range radii {
		radii[i] = 0.5 + 20*rng.Float64() // Mpc/h: the halo-mass range the synthesis integrates over
	}
	sink := 0.0
	p.add("cosmo.sigma_r_us", usOf(perCall(len(radii), func(i int) { sink += params.SigmaR(radii[i]) })), "us")
	p.add("cosmo.mass_function_us", usOf(perCall(32, func(i int) {
		sink += params.MassFunction(1e12*(1+float64(i)), 0)
	})), "us")
	if sink == 0 {
		return fmt.Errorf("cosmo returned all zeros")
	}

	// The Q Continuum population: the synthesis alone, no scenario around it.
	d, err := timed(1, func() error {
		_, err := core.SynthesizePopulation(params, core.SynthesisOptions{
			BoxMpch: 923, NP: 8192, Z: 0, MinSize: 40, SampleAbove: 300000, Seed: e.seed})
		return err
	})
	if err != nil {
		return err
	}
	p.add("core.synthesize_ms", msOf(d), "ms")
	var s *core.Scenario
	if d, err = timed(1, func() error { s, err = core.DownscaledScenario(e.seed); return err }); err != nil {
		return err
	}
	p.add("core.scenario_ms", msOf(d), "ms")
	var co *core.Report
	d, err = timed(9, func() error {
		for _, k := range core.Kinds() {
			r, err := core.Run(s, k)
			if err != nil {
				return err
			}
			if k == core.CombinedCoScheduled {
				co = r
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.add("core.run_kinds_ms", msOf(d), "ms")
	// Simulated, so they repeat exactly for a seed: a host-time change
	// that moves them changed behaviour.
	p.add("core.sim_core_hours", co.AnalysisCoreHours, "core-h")
	p.add("core.sim_makespan_s", co.WallClock, "sim-s")
	if d, err = timed(1, func() error { _, err := core.QContinuumStudy(e.seed); return err }); err != nil {
		return err
	}
	p.add("core.qcontinuum_ms", msOf(d), "ms")
	return nil
}

// --- core (engine), des, sched, fs, supervise, obs, fault -------------------

func probeEngine(e *env, _ string, p *probes) error {
	const long, short = 100, 20
	s, err := campaignScenario(e.seed)
	if err != nil {
		return err
	}
	campaign := func(sc *core.Scenario, steps int) func() error {
		return func() error { _, err := core.Campaign(sc, steps); return err }
	}
	bare100, err := timed(7, campaign(s, long))
	if err != nil {
		return err
	}
	bare20, err := timed(21, campaign(s, short))
	if err != nil {
		return err
	}
	p.add("core.campaign_bare_ms", msOf(bare100), "ms")
	p.add("core.campaign_bare20_ms", msOf(bare20), "ms")
	// 1.0 is linear in the number of steps.
	p.add("core.campaign_scaling", float64(bare100)/(float64(long/short)*float64(bare20)), "ratio")

	sup := *s
	pol := supervise.DefaultPolicy()
	sup.Supervise = &pol
	var observed *obs.Observer
	withObs := func() error {
		sc := *s
		observed = obs.New("campaign", nil)
		sc.Obs = observed
		_, err := core.Campaign(&sc, long)
		return err
	}
	bareAllocs, err := mallocsOf(campaign(s, long))
	if err != nil {
		return err
	}
	for _, layer := range []struct {
		name string
		run  func() error
	}{{"supervise", campaign(&sup, long)}, {"obs", withObs}} {
		d, err := pairedOverhead(7, campaign(s, long), layer.run)
		if err != nil {
			return err
		}
		allocs, err := mallocsOf(layer.run)
		if err != nil {
			return err
		}
		p.add(layer.name+".overhead_ms", msOf(d), "ms")
		p.add(layer.name+".overhead_allocs", allocs-bareAllocs, "allocs")
	}
	supRep, err := core.Campaign(&sup, long)
	if err != nil {
		return err
	}
	p.add("supervise.decisions", float64(len(supRep.Decisions)), "count")
	p.add("obs.spans", float64(len(observed.Spans())), "count")
	var trace bytes.Buffer
	d, err := timed(5, func() error { trace.Reset(); return obs.WriteTrace(&trace, observed) })
	if err != nil {
		return err
	}
	p.add("obs.trace_write_ms", msOf(d), "ms")
	o := obs.New("probe", func() float64 { return 0 })
	p.add("obs.span_ns", float64(perCall(20000, func(int) { o.Begin("probe", "span").Done() })), "ns")

	probeWatch(p)
	for _, probe := range []func(*probes) error{probeDES, probeCluster, probeListener} {
		if err := probe(p); err != nil {
			return err
		}
	}

	inj, err := fault.New(*recoverProfile(e.seed, short, s.StepInterval))
	if err != nil {
		return err
	}
	failures := 0
	p.add("fault.decide_ns", float64(perCall(20000, func(i int) {
		if _, fail := inj.JobAttempt("post-step", i); fail {
			failures++
		}
	})), "ns")
	if failures == 0 {
		return fmt.Errorf("fault injector at 25%% job failure injected none in 20000 draws")
	}
	return nil
}

// probeWatch: one task watched and completed, watchdog events drained.
func probeWatch(p *probes) {
	var sim des.Sim
	sv := supervise.New(&sim, supervise.DefaultPolicy())
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		name := fmt.Sprint("task", i)
		sv.Watch(name, 100, sim.Now, func(supervise.Reason) {})
		sv.Done(name)
	}
	sim.Run()
	p.add("supervise.watch_us", usOf(time.Since(t0)/n), "us")
}

// probeDES: schedule 10^5 events, run them.
func probeDES(p *probes) error {
	const n = 100000
	fired := 0
	d, err := timed(3, func() error {
		var sim des.Sim
		for i := 0; i < n; i++ {
			sim.At(float64(i%1000), func() { fired++ })
		}
		sim.Run()
		return nil
	})
	if err != nil {
		return err
	}
	if fired != 3*n {
		return fmt.Errorf("des fired %d of %d events", fired, 3*n)
	}
	p.add("des.events_per_s", n/d.Seconds(), "1/s")
	return nil
}

// probeCluster: 1000 jobs through one cluster.
func probeCluster(p *probes) error {
	const n = 1000
	d, err := timed(3, func() error {
		var sim des.Sim
		cluster, err := sched.NewCluster(&sim, platform.Titan())
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := cluster.Submit(&sched.Job{Name: fmt.Sprint("job", i), Nodes: 64, Duration: 100}); err != nil {
				return err
			}
		}
		sim.Run()
		if got := len(cluster.Finished()); got != n {
			return fmt.Errorf("cluster finished %d of %d jobs", got, n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.add("sched.jobs_per_s", n/d.Seconds(), "1/s")
	return nil
}

// probeListener: fs.List and one steady-state listener sweep at 200
// visible files, every one already submitted — what each poll of a long
// campaign pays.
func probeListener(p *probes) error {
	const files, calls = 200, 500
	var sim des.Sim
	storage := fs.New(&sim, "lustre")
	for i := 0; i < files; i++ {
		storage.Write(fmt.Sprintf("l2/step%03d.gio", i), 1e6, 0, nil, nil)
	}
	sim.Run()
	cluster, err := sched.NewCluster(&sim, platform.Titan())
	if err != nil {
		return err
	}
	l := &sched.Listener{Sim: &sim, FS: storage, Cluster: cluster, Prefix: "l2/", PollInterval: 30,
		MakeJob: func(path string, _ *fs.File) *sched.Job { return &sched.Job{Name: path, Nodes: 4, Duration: 10} }}
	l.FinalSweep()
	listed := 0
	p.add("fs.list_us", usOf(perCall(calls, func(int) { listed += len(storage.List("l2/")) })), "us")
	p.add("sched.listener_sweep_us", usOf(perCall(calls, func(int) { l.FinalSweep() })), "us")
	if listed != calls*files || l.Submitted != files {
		return fmt.Errorf("listener listed %d paths in %d calls and submitted %d of %d files", listed, calls, l.Submitted, files)
	}
	return nil
}

// --- core (persisted), ckpt, integrity --------------------------------------

func probePersistence(e *env, dir string, p *probes) error {
	const steps = 20
	s, err := campaignScenario(e.seed)
	if err != nil {
		return err
	}
	n := 0
	persisted := func(sc *core.Scenario) func() error {
		return func() error {
			n++
			d := filepath.Join(dir, fmt.Sprint("campaign", n))
			if _, err := core.ResumableCampaign(sc, steps, d, e.seed); err != nil {
				return err
			}
			return os.RemoveAll(d)
		}
	}
	inMemory, err := timed(3, func() error { _, err := core.Campaign(s, steps); return err })
	if err != nil {
		return err
	}
	clean, err := timed(3, persisted(s))
	if err != nil {
		return err
	}
	scrubbed := *s
	scrubbed.Scrub = &core.ScrubPolicy{}
	withScrub, err := timed(3, persisted(&scrubbed))
	if err != nil {
		return err
	}
	p.add("core.persist_overhead_ms", msOf(clean-inMemory), "ms")
	p.add("integrity.overhead_ms", msOf(withScrub-clean), "ms")

	// The persisted half of campaign_recover at fault seed S: killed twice,
	// resumed to completion. Its report carries the recovery counters.
	// What it left in its directory is the device-independent measure of
	// that path: the bytes made durable and the journal records (each one
	// a committed, fsync'd step of progress).
	rec := &campaignRecover{e: e, steps: steps, scen: s, dir: dir}
	var rep *core.CampaignReport
	var durable, commits float64
	faulted, err := timed(3, func() error {
		n++
		d := filepath.Join(dir, fmt.Sprint("campaign", n))
		if rep, err = rec.runToCompletion(rec.faulted(e.seed), d); err != nil {
			return err
		}
		if durable, commits, err = persistedFootprint(d); err != nil {
			return err
		}
		return os.RemoveAll(d)
	})
	if err != nil {
		return err
	}
	p.add("core.recover_ratio", float64(faulted)/float64(clean), "ratio")
	p.add("core.generations", float64(rep.Resume.Generation+1), "count")
	p.add("core.persisted_bytes", durable, "bytes")
	p.add("ckpt.journal_records", commits, "count")
	p.add("sched.retries", float64(rep.Resilience.Resubmits), "count")
	p.add("sched.hedges", float64(rep.Resilience.HedgesLaunched), "count")
	p.add("ckpt.steps_skipped", float64(rep.Resume.StepsSkipped), "count")
	p.add("ckpt.torn_files", float64(rep.Resume.TornFiles), "count")
	p.add("integrity.verified", float64(rep.Integrity.Verified), "count")
	p.add("integrity.corruptions", float64(rep.Integrity.Corruptions), "count")
	p.add("integrity.repairs", float64(rep.Integrity.Repaired), "count")

	// ckpt: commit a 64 KB product (temp file, fsync, rename, dir fsync,
	// journal append + fsync) in the workdir.
	rng := rand.New(rand.NewSource(e.seed))
	product := make([]byte, 64<<10)
	rng.Read(product)
	cdir := filepath.Join(dir, "commit")
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return err
	}
	j, _, err := ckpt.Open(filepath.Join(cdir, "journal.wal"))
	if err != nil {
		return err
	}
	k := 0
	d, err := timed(9, func() error {
		k++
		_, err := j.Commit(ckpt.Record{Kind: ckpt.KindStep, Step: k, Path: fmt.Sprintf("step%03d.bin", k)}, cdir, product)
		return err
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p.add("ckpt.commit_us", usOf(d), "us")

	// ckpt: open + replay the journal a finished 100-step campaign leaves.
	var journal bytes.Buffer
	records := []ckpt.Record{
		{Kind: ckpt.KindMeta, Name: s.Name, Timesteps: 100, Seed: e.seed},
		{Kind: ckpt.KindRun, Name: "gen-0"},
	}
	for step := 1; step <= 100; step++ {
		records = append(records,
			ckpt.Record{Kind: ckpt.KindStep, Step: step, Path: fmt.Sprintf("l2/step%03d.gio", step), Bytes: 4096, CRC: uint32(step)},
			ckpt.Record{Kind: ckpt.KindPost, Step: step, Path: fmt.Sprintf("centers/step%03d.centers", step), Bytes: 512, CRC: uint32(step)})
	}
	records = append(records, ckpt.Record{Kind: ckpt.KindMerge, Path: "catalog.txt", Bytes: 51200})
	for _, r := range records {
		line, err := ckpt.Frame(r)
		if err != nil {
			return err
		}
		journal.Write(line)
	}
	jpath := filepath.Join(dir, "replay.wal")
	if err := ckpt.WriteFileAtomic(jpath, journal.Bytes()); err != nil {
		return err
	}
	d, err = timed(9, func() error {
		j, recs, err := ckpt.Open(jpath)
		if err != nil {
			return err
		}
		if m := ckpt.Replay(recs); m.CompletedSteps() != 100 {
			return fmt.Errorf("replayed %d completed steps of 100", m.CompletedSteps())
		}
		return j.Close()
	})
	if err != nil {
		return err
	}
	p.add("ckpt.replay_ms", msOf(d), "ms")

	// integrity: one ledger append (fsync'd), and verifying a 1 MB product.
	led, err := integrity.OpenLedger(filepath.Join(dir, "lineage.wal"))
	if err != nil {
		return err
	}
	big := make([]byte, 1e6)
	rng.Read(big)
	prod := integrity.Product{Path: "big.bin", Bytes: int64(len(big)), Sum: integrity.Sum(big), Producer: "probe"}
	if err := ckpt.WriteFileAtomic(filepath.Join(dir, prod.Path), big); err != nil {
		return err
	}
	d, err = timed(9, func() error { k++; q := prod; q.Step = k; return led.Append(q) })
	if cerr := led.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p.add("integrity.append_us", usOf(d), "us")
	scr := &integrity.Scrubber{Dir: dir}
	if d, err = timed(9, func() error { return scr.Verify(prod) }); err != nil {
		return err
	}
	p.add("integrity.verify_us_per_mb", usOf(d), "us")
	return nil
}

// persistedFootprint sums the sizes of every file a finished persisted
// campaign left under dir and counts its journal's records.
func persistedFootprint(dir string) (bytes, records float64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d iofs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			bytes += float64(info.Size())
		}
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	j, recs, err := ckpt.Open(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return 0, 0, err
	}
	return bytes, float64(len(recs)), j.Close()
}

// --- the real kernels, on one evolved 32³ snapshot --------------------------

// probeSnapshot is the clustered particle set the kernel probes share:
// 32³ particles in a 40 Mpc/h box evolved to z = 0 in 20 PM steps.
type probeSnapshot struct {
	np   int
	box  float64
	mass float64
	sim  *nbody.Simulation
	cat  *halo.Catalog
	// x..vz are the largest halo's unwrapped members; mbp indexes its most
	// bound one.
	x, y, z, vx, vy, vz []float64
	mbp                 int
}

const (
	probeNP    = 32
	probeBox   = 40
	probeSteps = 20
)

var fofOptions = halo.Options{LinkingLength: 0.2 * probeBox / probeNP, MinSize: minHaloSize, Periodic: true}

func newProbeSnapshot(e *env, p *probes) (*probeSnapshot, error) {
	params := cosmo.Default()
	d, err := timed(3, func() error {
		_, _, err := ic.Generate(params, ic.Options{NP: probeNP, Box: probeBox, ZInit: zInit, Seed: e.seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	p.add("ic.generate_ms", msOf(d), "ms")
	sim, err := evolve(nil, probeNP, probeBox, e.seed)
	if err != nil {
		return nil, err
	}
	// The 20 steps that evolve the snapshot are the PM-step sample.
	steps := make([]float64, 0, probeSteps)
	last := time.Now()
	if err := sim.Run(1.0, probeSteps, func(int) error {
		steps = append(steps, float64(time.Since(last)))
		last = time.Now()
		return nil
	}); err != nil {
		return nil, err
	}
	step := time.Duration(median(steps))
	p.add("nbody.step_ms", msOf(step), "ms")
	p.add("nbody.particle_steps_per_s", float64(sim.P.N())/step.Seconds(), "1/s")

	s := &probeSnapshot{np: probeNP, box: probeBox, sim: sim, mass: params.ParticleMass(probeBox, probeNP)}
	if d, err = timed(5, func() error { s.cat, err = halo.FOF(sim.P, s.box, fofOptions); return err }); err != nil {
		return nil, err
	}
	allocs, err := mallocsOf(func() error { _, err := halo.FOF(sim.P, s.box, fofOptions); return err })
	if err != nil {
		return nil, err
	}
	if len(s.cat.Halos) == 0 {
		return nil, fmt.Errorf("probe snapshot has no halos")
	}
	p.add("halo.fof_ms", msOf(d), "ms")
	p.add("halo.fof_allocs", allocs, "allocs")
	p.add("halo.halos", float64(len(s.cat.Halos)), "count")
	big := &s.cat.Halos[0]
	for i := range s.cat.Halos {
		if s.cat.Halos[i].Count() > big.Count() {
			big = &s.cat.Halos[i]
		}
	}
	s.x, s.y, s.z = center.Unwrap(sim.P.X, sim.P.Y, sim.P.Z, big.Indices, s.box)
	for _, i := range big.Indices {
		s.vx, s.vy, s.vz = append(s.vx, sim.P.VX[i]), append(s.vy, sim.P.VY[i]), append(s.vz, sim.P.VZ[i])
	}
	return s, nil
}

func probeKernels(e *env, _ string, p *probes) error {
	rng := rand.New(rand.NewSource(e.seed))
	// fft, grid: the 64³ mesh of the ROADMAP `hacc-sim -np 64` shape.
	const mesh = 64
	cube, err := fft.NewCube(mesh)
	if err != nil {
		return err
	}
	for i := range cube.Data {
		cube.Data[i] = complex(rng.NormFloat64(), 0)
	}
	d, err := timed(5, cube.Forward3D)
	if err != nil {
		return err
	}
	p.add("fft.forward3d_ms", msOf(d), "ms")
	g, err := grid.NewScalar(mesh, 80)
	if err != nil {
		return err
	}
	pos := make([]float64, 3*mesh*mesh*mesh)
	for i := range pos {
		pos[i] = 80 * rng.Float64()
	}
	if d, err = timed(5, func() error {
		for i := 0; i < len(pos); i += 3 {
			g.DepositCIC(pos[i], pos[i+1], pos[i+2], 1)
		}
		return nil
	}); err != nil {
		return err
	}
	p.add("grid.cic_deposit_ms", msOf(d), "ms")

	s, err := newProbeSnapshot(e, p)
	if err != nil {
		return err
	}
	if d, err = timed(5, func() error { _, err := powerspec.Measure(s.sim.P, s.box, s.np, 16); return err }); err != nil {
		return err
	}
	p.add("powerspec.measure_ms", msOf(d), "ms")
	var tree *kdtree.Tree
	if d, err = timed(5, func() error {
		tree, err = kdtree.Build(s.sim.P.X, s.sim.P.Y, s.sim.P.Z, s.box, 16)
		return err
	}); err != nil {
		return err
	}
	p.add("kdtree.build_ms", msOf(d), "ms")

	// center: both finders on the largest halo; pairs is the Σn² the
	// brute-force finder evaluates over the whole catalog (computed).
	n := float64(len(s.x))
	serial := center.Options{Mass: s.mass, Softening: softening, Backend: dparallel.Serial{}}
	brute, err := timed(5, func() error {
		res, err := center.BruteForce(s.x, s.y, s.z, serial)
		s.mbp = res.Index
		return err
	})
	if err != nil {
		return err
	}
	p.add("center.brute_ns_per_pair", float64(brute)/(n*n), "ns")
	if d, err = timed(5, func() error {
		_, err := center.AStar(s.x, s.y, s.z, center.Options{Mass: s.mass, Softening: softening})
		return err
	}); err != nil {
		return err
	}
	p.add("center.astar_ms", msOf(d), "ms")
	pairs := 0.0
	for i := range s.cat.Halos {
		c := float64(s.cat.Halos[i].Count())
		pairs += c * c
	}
	p.add("center.pairs", pairs, "count")
	// e.ranks workers: 2, or 1 on a one-processor host, where this and
	// cosmotools.rank_efficiency read ~1 and mean nothing.
	two, err := timed(5, func() error {
		_, err := center.BruteForce(s.x, s.y, s.z, center.Options{Mass: s.mass, Softening: softening,
			Backend: dparallel.Parallel{NumWorkers: e.ranks}})
		return err
	})
	if err != nil {
		return err
	}
	p.add("dparallel.speedup_w2", float64(brute)/float64(two), "ratio")

	if d, err = timed(3, func() error {
		_, err := subhalo.Find(s.x, s.y, s.z, s.vx, s.vy, s.vz, subhalo.Options{
			Mass: s.mass, K: 16, MinSize: 20, Softening: softening})
		return err
	}); err != nil {
		return err
	}
	p.add("subhalo.find_ms", msOf(d), "ms")
	if d, err = timed(9, func() error {
		// Seeded at the largest halo's most bound particle. A diffuse
		// PM halo may have no overdensity-200 crossing; the search that
		// finds that out is the same work.
		_, _ = so.Measure(tree, s.x[s.mbp], s.y[s.mbp], s.z[s.mbp], so.Options{
			ParticleMass: s.mass, Delta: 200, RhoRef: cosmo.Default().MeanMatterDensity(), MaxRadius: 3})
		return nil
	}); err != nil {
		return err
	}
	p.add("so.measure_us", usOf(d), "us")
	return probeFramework(e, s, p)
}

// probeFramework times the CosmoTools layer and the rank runtime on the
// probe snapshot.
func probeFramework(e *env, s *probeSnapshot, p *probes) error {
	// Manager.Execute with per-algorithm spans: what is left after the
	// algorithms' own spans is the framework's dispatch.
	tr := newTracer()
	var exec *ref
	manager, err := newManager(s.np, s.box, splitThreshold, &exec)
	if err != nil {
		return err
	}
	const reps = 3
	for r := 0; r < reps; r++ {
		root := tr.beginOp("probe", r)
		exec = root.begin("cosmotools.Manager.Execute")
		err := manager.Execute(cosmotools.NewContext(probeSteps, s.sim.A, s.box, s.mass, s.sim.P))
		exec.end()
		root.end()
		if err != nil {
			return err
		}
	}
	self := selfTimes(tr.spans)
	var execs, selfs []float64
	for i, sp := range tr.spans {
		if sp.name == "cosmotools.Manager.Execute" {
			execs = append(execs, float64(sp.dur()))
			selfs = append(selfs, float64(self[i]))
		}
	}
	p.add("cosmotools.execute_ms", msOf(time.Duration(median(execs))), "ms")
	p.add("cosmotools.dispatch_self_ms", msOf(time.Duration(median(selfs))), "ms")
	co := center.Options{Mass: s.mass, Softening: softening}
	d, err := timed(3, func() error {
		_, _, err := cosmotools.SplitCenterFinding(s.sim.P, s.box, s.cat, splitThreshold, co)
		return err
	})
	if err != nil {
		return err
	}
	p.add("cosmotools.split_centers_ms", msOf(d), "ms")

	// The distributed analysis of analysis_offline on 1 rank and on e.ranks.
	pe := *e
	pe.size.offNP, pe.size.offBox = s.np, s.box
	off := &analysisOffline{e: &pe, mass: s.mass}
	var r1, r2 time.Duration
	if r1, err = timed(3, func() error { _, err := off.analyse(s.sim.P, 1, nil); return err }); err != nil {
		return err
	}
	if r2, err = timed(3, func() error { _, err := off.analyse(s.sim.P, e.ranks, nil); return err }); err != nil {
		return err
	}
	p.add("cosmotools.parallel_r1_ms", msOf(r1), "ms")
	p.add("cosmotools.parallel_r2_ms", msOf(r2), "ms")
	// 1.0 is perfect strong scaling.
	p.add("cosmotools.rank_efficiency", float64(r1)/(float64(e.ranks)*float64(r2)), "ratio")

	if d, err = timed(5, func() error {
		return mpi.RunRanks(e.ranks, func(c *mpi.Comm) error {
			_, err := nbody.Distribute(c, rankShare(c, s.sim.P), s.box)
			return err
		})
	}); err != nil {
		return err
	}
	p.add("nbody.distribute_ms", msOf(d), "ms")
	t0 := time.Now()
	if err := mpi.RunRanks(e.ranks, exchangeLoop); err != nil {
		return err
	}
	p.add("mpi.alltoall_us", usOf(time.Since(t0)/exchanges), "us")
	return nil
}

// exchanges is how many AllToAll rounds exchangeLoop runs.
const exchanges = 500

// exchangeLoop is the mpi.alltoall_us rank body: a two-element payload
// passed round and round.
func exchangeLoop(c *mpi.Comm) error {
	out := make([]any, c.Size())
	for i := range out {
		out[i] = i
	}
	for i := 0; i < exchanges; i++ {
		out = c.AllToAll(out)
	}
	return nil
}

// --- gio, catalog, transit --------------------------------------------------

func probeIO(e *env, dir string, p *probes) error {
	sim, err := evolve(nil, probeNP, probeBox, e.seed)
	if err != nil {
		return err
	}
	// Level 1: the whole 32³ particle set in one block, written then read.
	l1 := filepath.Join(dir, "probe.l1.gio")
	if err := gio.WriteFile(l1, []gio.Block{{Rank: 0, Particles: sim.P}}); err != nil {
		return err
	}
	info, err := os.Stat(l1)
	if err != nil {
		return err
	}
	l1Bytes := float64(info.Size())
	d, err := timed(5, func() error {
		blocks, err := gio.ReadFile(l1)
		if err == nil && gio.Merge(blocks).N() != sim.P.N() {
			err = fmt.Errorf("read back %d of %d particles", gio.Merge(blocks).N(), sim.P.N())
		}
		return err
	})
	if err != nil {
		return err
	}
	p.add("gio.read_mb_per_s", l1Bytes/1e6/d.Seconds(), "MB/s")
	p.add("gio.l1_bytes", l1Bytes, "bytes")

	// Level 2: a tenth of the particles in 8 blocks, the size class of
	// pipeline_insitu's large-halo extraction; commit includes the fsyncs.
	blocks := make([]gio.Block, 8)
	for b := range blocks {
		blocks[b] = gio.Block{Rank: b, Particles: share(sim.P, b, 10*len(blocks))}
	}
	l2 := filepath.Join(dir, "probe.l2.gio")
	if d, err = timed(5, func() error { return gio.WriteFile(l2, blocks) }); err != nil {
		return err
	}
	if info, err = os.Stat(l2); err != nil {
		return err
	}
	p.add("gio.write_mb_per_s", float64(info.Size())/1e6/d.Seconds(), "MB/s")
	p.add("gio.l2_bytes", float64(info.Size()), "bytes")

	// catalog: merge a 1000-record in-situ catalog with a 50-record
	// off-line one that supersedes part of it.
	recs := make([]cosmotools.CenterRecord, 1000)
	for i := range recs {
		recs[i] = cosmotools.CenterRecord{HaloTag: int64(i * 7), MBPTag: int64(i*7 + 3),
			Pos: [3]float64{float64(i % 40), float64(i % 37), float64(i % 31)}, Potential: -float64(i + 1), Count: 10 + i}
	}
	a, b := filepath.Join(dir, "insitu.centers"), filepath.Join(dir, "offline.centers")
	if err := catalog.WriteFile(a, recs); err != nil {
		return err
	}
	if err := catalog.WriteFile(b, recs[:50]); err != nil {
		return err
	}
	if d, err = timed(9, func() error {
		merged, err := catalog.MergeFiles([]string{a, b})
		if err == nil && len(merged) != len(recs) {
			err = fmt.Errorf("merged %d records, want %d", len(merged), len(recs))
		}
		return err
	}); err != nil {
		return err
	}
	p.add("catalog.merge_ms", msOf(d), "ms")

	// transit: one item through the staging device (informational: no
	// workload depends on it yet).
	stage, err := transit.NewStage(1 << 20)
	if err != nil {
		return err
	}
	payload := make([]byte, 1024)
	var terr error
	per2 := perCall(2000, func(i int) {
		key := fmt.Sprint("item", i)
		if err := stage.Put(transit.Item{Key: key, Bytes: int64(len(payload)), Payload: payload}); err != nil {
			terr = err
		}
		if _, err := stage.Take(); err != nil {
			terr = err
		}
		stage.Ack(key)
	})
	stage.Close()
	if terr != nil {
		return terr
	}
	p.add("transit.put_take_us", usOf(per2), "us")
	return nil
}
