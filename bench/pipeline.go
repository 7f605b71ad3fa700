package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/catalog"
	"repro/internal/center"
	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/gio"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/kdtree"
	"repro/internal/mpi"
	"repro/internal/nbody"
	"repro/internal/so"
	"repro/internal/subhalo"
)

const (
	// splitThreshold is the in-situ/off-line cut of pipeline_insitu: the
	// paper's 300,000 scaled to a box whose largest halos hold a few
	// thousand particles (ROADMAP's `split_threshold 300` shape).
	splitThreshold = 300
	zInit          = 50
	minHaloSize    = 10
	softening      = 1e-3
	// splitTolerancePct is how many merged records may differ from the
	// all-in-situ analysis before the op fails. Level 2 stores float32
	// positions, so the off-line finder sees a large halo's particles a
	// float32 ulp away from where the in-situ finder saw them; where two
	// particles' potentials nearly tie that flips the most bound one
	// (1 halo of 61 at seed 10). Every halo must still be there.
	splitTolerancePct = 5
	// overloadSpacings is the ghost-zone width of the 2-rank analysis in
	// mean inter-particle spacings: wide enough that the largest halo of
	// either box is found whole by one rank, so 2 ranks must reproduce
	// the 1-rank catalog exactly.
	overloadSpacings = 4
)

func linkingLength(box float64, np int) float64 { return 0.2 * box / float64(np) }

// evolve generates seeded initial conditions and returns the simulation
// ready to step.
func evolve(root *ref, np int, box float64, seed int64) (*nbody.Simulation, error) {
	params := cosmo.Default()
	sp := root.begin("ic.Generate")
	particles, a0, err := ic.Generate(params, ic.Options{NP: np, Box: box, ZInit: zInit, Seed: seed})
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = root.begin("nbody.NewSimulation")
	sim, err := nbody.NewSimulation(params, box, np, particles, a0)
	sp.end()
	if err != nil {
		return nil, err
	}
	sim.Seed = seed
	return sim, nil
}

// tracedAlgorithm decorates a CosmoTools algorithm so each Execute gets a
// span of its own under the Manager.Execute span open at the time. The
// span is named for the kernel package the algorithm's body calls — the
// layer whose speed-up it would show.
type tracedAlgorithm struct {
	cosmotools.Algorithm
	span   string
	parent **ref
}

func (a tracedAlgorithm) Execute(ctx *cosmotools.Context) error {
	sp := (*a.parent).begin(a.span)
	err := a.Algorithm.Execute(ctx)
	sp.end()
	return err
}

// newManager registers hacc-sim's default in-situ tools — power spectrum
// and halo finder — configured as its deckless run configures them, with
// the given split threshold. With a parent, each algorithm is decorated to
// open its span under *parent.
func newManager(np int, box float64, threshold int, parent **ref) (*cosmotools.Manager, error) {
	ps := cosmotools.NewPowerSpectrum()
	if err := ps.SetParameters(map[string]string{"grid": fmt.Sprint(np), "bins": "16"}); err != nil {
		return nil, err
	}
	hf := cosmotools.NewHaloFinder()
	if err := hf.SetParameters(map[string]string{
		"linking_length":  fmt.Sprint(linkingLength(box, np)),
		"min_size":        fmt.Sprint(minHaloSize),
		"split_threshold": fmt.Sprint(threshold),
	}); err != nil {
		return nil, err
	}
	algorithms := []cosmotools.Algorithm{ps, hf}
	if parent != nil {
		algorithms = []cosmotools.Algorithm{
			tracedAlgorithm{ps, "powerspec.Measure(PowerSpectrum.Execute)", parent},
			tracedAlgorithm{hf, "halo.FOF+centers(HaloFinder.Execute)", parent},
		}
	}
	m := &cosmotools.Manager{}
	for _, a := range algorithms {
		if err := m.Register(a); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// --- pipeline_insitu --------------------------------------------------------

type pipelineInsitu struct {
	e        *env
	dir      string
	manager  *cosmotools.Manager // split at splitThreshold
	allIn    *cosmotools.Manager // split disabled: the all-in-situ reference
	execSpan *ref                // Manager.Execute span the decorators nest under
	digests  map[int64][32]byte  // first product digest seen per IC seed
}

func setupPipelineInsitu(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.workdir, "insitu-")
	if err != nil {
		return nil, err
	}
	p := &pipelineInsitu{e: e, dir: dir, digests: map[int64][32]byte{}}
	if p.manager, err = newManager(e.size.pipeNP, e.size.pipeBox, splitThreshold, &p.execSpan); err != nil {
		return nil, err
	}
	if p.allIn, err = newManager(e.size.pipeNP, e.size.pipeBox, 0, nil); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *pipelineInsitu) inputs() int { return 2 }

// op is the combined workflow end to end at IC seed S + i mod 2: simulate
// with in-situ analysis every pipeEvery steps; at the final step land the
// Level 2 particles (one gio block per large halo, as `cosmotools -mode
// centers` expects) and the in-situ centers; read Level 2 back, find the
// large halos' centers off-line, and merge the two catalogs.
func (p *pipelineInsitu) op(i int, root *ref) (func() (float64, error), error) {
	sz := p.e.size
	seed := p.e.seed + int64(mod(i, 2))
	dir := filepath.Join(p.dir, fmt.Sprintf("op%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fail := func(err error) (func() (float64, error), error) {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	sim, err := evolve(root, sz.pipeNP, sz.pipeBox, seed)
	if err != nil {
		return fail(err)
	}
	mass := sim.Cosmo.ParticleMass(sz.pipeBox, sz.pipeNP)
	var final *cosmotools.Context
	run := root.begin("nbody.Simulation.Run")
	err = sim.Run(1.0, sz.pipeSteps, func(step int) error {
		if step%sz.pipeEvery != 0 && step != sz.pipeSteps {
			return nil
		}
		ctx := cosmotools.NewContext(step, sim.A, sz.pipeBox, mass, sim.P)
		p.execSpan = run.begin("cosmotools.Manager.Execute")
		err := p.manager.Execute(ctx)
		p.execSpan.end()
		final = ctx
		return err
	})
	run.end()
	if err != nil {
		return fail(err)
	}
	l2 := final.Outputs["halofinder/level2"].(*cosmotools.Level2)
	inSitu := final.Outputs["halofinder/centers"].([]cosmotools.CenterRecord)
	blocks := make([]gio.Block, len(l2.Spans))
	for b, s := range l2.Spans {
		idx := make([]int, s.End-s.Start)
		for k := range idx {
			idx[k] = s.Start + k
		}
		blocks[b] = gio.Block{Rank: b, Particles: l2.Particles.Select(idx)}
	}
	l2Path := filepath.Join(dir, "final.l2.gio")
	inSituPath := filepath.Join(dir, "final.insitu.centers")
	offPath := filepath.Join(dir, "final.offline.centers")

	sp := root.begin("gio.WriteFile")
	err = gio.WriteFile(l2Path, blocks)
	sp.end()
	if err != nil {
		return fail(err)
	}
	sp = root.begin("catalog.WriteFile")
	err = catalog.WriteFile(inSituPath, inSitu)
	sp.end()
	if err != nil {
		return fail(err)
	}
	sp = root.begin("gio.ReadFile")
	back, err := gio.ReadFile(l2Path)
	sp.end()
	if err != nil {
		return fail(err)
	}
	sp = root.begin("cosmotools.CentersForLevel2")
	off, err := cosmotools.CentersForLevel2(level2FromBlocks(back), sz.pipeBox,
		center.Options{Mass: mass, Softening: softening})
	sp.end()
	if err != nil {
		return fail(err)
	}
	sp = root.begin("catalog.WriteFile")
	err = catalog.WriteFile(offPath, off)
	sp.end()
	if err != nil {
		return fail(err)
	}
	sp = root.begin("catalog.MergeFiles")
	merged, err := catalog.MergeFiles([]string{inSituPath, offPath})
	sp.end()
	if err != nil {
		return fail(err)
	}
	return func() (float64, error) {
		dev, err := p.check(seed, sim, mass, l2Path, merged)
		return dev, errors.Join(err, os.RemoveAll(dir))
	}, nil
}

// level2FromBlocks rebuilds the Level 2 product from a file holding one
// block per large halo.
func level2FromBlocks(blocks []gio.Block) *cosmotools.Level2 {
	l2 := &cosmotools.Level2{Particles: nbody.NewParticles(0)}
	for _, b := range blocks {
		start := l2.Particles.N()
		tag := int64(math.MaxInt64)
		for k := 0; k < b.Particles.N(); k++ {
			l2.Particles.AppendFrom(b.Particles, k)
			if t := b.Particles.Tag[k]; t < tag {
				tag = t
			}
		}
		l2.Spans = append(l2.Spans, cosmotools.Level2Span{Tag: tag, Start: start, End: l2.Particles.N()})
	}
	return l2
}

// check analyses the same final snapshot with the split disabled and
// counts the merged-catalog records that differ, then holds the product
// bytes to the first run of the same IC seed.
func (p *pipelineInsitu) check(seed int64, sim *nbody.Simulation, mass float64, l2Path string, merged []cosmotools.CenterRecord) (float64, error) {
	sz := p.e.size
	ctx := cosmotools.NewContext(sz.pipeSteps, sim.A, sz.pipeBox, mass, sim.P)
	if err := p.allIn.Execute(ctx); err != nil {
		return 100, fmt.Errorf("all-in-situ reference: %w", err)
	}
	want := ctx.Outputs["halofinder/centers"].([]cosmotools.CenterRecord)
	dev := 100 * differingRecords(want, merged)
	if len(merged) != len(want) || dev > splitTolerancePct {
		return dev, fmt.Errorf("%.3g%% of %d merged center records differ from the all-in-situ analysis (%d records)",
			dev, len(merged), len(want))
	}
	l2Bytes, err := os.ReadFile(l2Path)
	if err != nil {
		return 100, err
	}
	var cat bytes.Buffer
	if err := catalog.Write(&cat, merged); err != nil {
		return 100, err
	}
	digest := sha256.Sum256(append(l2Bytes, cat.Bytes()...))
	if first, seen := p.digests[seed]; seen && first != digest {
		return 100, fmt.Errorf("IC seed %d: products differ from the first run of this seed", seed)
	}
	p.digests[seed] = digest
	return dev, nil
}

// differingRecords is the fraction of center records on which got
// disagrees with want: a missing, extra or mismatched halo counts once.
// Level 2 stores float32 positions, so a center found from read-back
// particles may sit a float32 ulp from the in-situ one; tags and counts
// must match exactly.
func differingRecords(want, got []cosmotools.CenterRecord) float64 {
	byTag := make(map[int64]cosmotools.CenterRecord, len(want))
	for _, r := range want {
		byTag[r.HaloTag] = r
	}
	bad := 0
	for _, g := range got {
		w, ok := byTag[g.HaloTag]
		if !ok {
			bad++ // extra halo
			continue
		}
		delete(byTag, g.HaloTag)
		same := w.MBPTag == g.MBPTag && w.Count == g.Count && relDiff(w.Potential, g.Potential) < 1e-4
		for a := 0; a < 3 && same; a++ {
			same = math.Abs(w.Pos[a]-g.Pos[a]) < 1e-3
		}
		if !same {
			bad++
		}
	}
	bad += len(byTag) // missing halos
	n := len(want)
	if len(got) > n {
		n = len(got)
	}
	if n == 0 {
		return 0
	}
	return float64(bad) / float64(n)
}

// --- analysis_offline -------------------------------------------------------

type analysisOffline struct {
	e      *env
	dir    string
	l1Path string
	mass   float64
	want   []cosmotools.CenterRecord // the 1-rank result
	follow []followUp                // and the Level 3 follow-ups on it
}

func setupAnalysisOffline(e *env) (instance, error) {
	sz := e.size
	dir, err := os.MkdirTemp(e.workdir, "offline-")
	if err != nil {
		return nil, err
	}
	sim, err := evolve(nil, sz.offNP, sz.offBox, e.seed)
	if err != nil {
		return nil, err
	}
	if err := sim.Run(1.0, sz.offSteps, nil); err != nil {
		return nil, err
	}
	a := &analysisOffline{e: e, dir: dir, l1Path: filepath.Join(dir, "snapshot.gio"),
		mass: sim.Cosmo.ParticleMass(sz.offBox, sz.offNP)}
	// One block per writer rank, as a 2-rank simulation would leave it.
	blocks := make([]gio.Block, e.ranks)
	for r := range blocks {
		blocks[r] = gio.Block{Rank: r, Particles: share(sim.P, r, e.ranks)}
	}
	if err := gio.WriteFile(a.l1Path, blocks); err != nil {
		return nil, err
	}
	merged, err := a.read(nil)
	if err != nil {
		return nil, err
	}
	if a.want, err = a.analyse(merged, 1, nil); err != nil {
		return nil, fmt.Errorf("1-rank reference analysis: %w", err)
	}
	if len(a.want) < sz.topHalos {
		return nil, fmt.Errorf("snapshot holds only %d halos, need %d", len(a.want), sz.topHalos)
	}
	if a.follow, err = a.followUps(merged, a.want, nil); err != nil {
		return nil, err
	}
	if a.follow[0].soParticles == 0 || a.follow[0].subhalos == 0 {
		return nil, fmt.Errorf("largest halo has no SO mass or no subhalo: %+v", a.follow[0])
	}
	return a, nil
}

func (a *analysisOffline) read(root *ref) (*nbody.Particles, error) {
	sp := root.begin("gio.ReadFile")
	blocks, err := gio.ReadFile(a.l1Path)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = root.begin("gio.Merge")
	merged := gio.Merge(blocks)
	sp.end()
	return merged, nil
}

// analyse is the distributed off-line pass on the given rank count: every
// rank takes an equal share of the file's particles, the slab
// redistribution moves them home, each rank runs overload FOF and finds
// all of its halos' centers, and the catalog is gathered.
func (a *analysisOffline) analyse(all *nbody.Particles, ranks int, parent *ref) ([]cosmotools.CenterRecord, error) {
	sz := a.e.size
	spacing := sz.offBox / float64(sz.offNP)
	fofOpts := halo.Options{LinkingLength: linkingLength(sz.offBox, sz.offNP), MinSize: minHaloSize}
	co := center.Options{Mass: a.mass, Softening: softening}
	var gathered []cosmotools.CenterRecord
	err := mpi.RunRanks(ranks, func(c *mpi.Comm) error {
		lane := 1 + c.Rank()
		sp := parent.beginLane(lane, "nbody.Distribute")
		local, err := nbody.Distribute(c, rankShare(c, all), sz.offBox)
		sp.end()
		if err != nil {
			return err
		}
		sp = parent.beginLane(lane, "cosmotools.ParallelAnalysis")
		pp, err := cosmotools.ParallelAnalysis(c, local, sz.offBox, overloadSpacings*spacing, fofOpts, 0, co)
		sp.end()
		if err != nil {
			return err
		}
		sp = parent.beginLane(lane, "cosmotools.GatherCenters")
		centers := cosmotools.GatherCenters(c, pp.Centers)
		sp.end()
		if c.Rank() == 0 {
			gathered = centers
		}
		return nil
	})
	return gathered, err
}

// share is the part-th of parts contiguous, near-equal slices of all.
func share(all *nbody.Particles, part, parts int) *nbody.Particles {
	lo, hi := part*all.N()/parts, (part+1)*all.N()/parts
	idx := make([]int, hi-lo)
	for k := range idx {
		idx[k] = lo + k
	}
	return all.Select(idx)
}

// rankShare is the slice of all that rank c holds before redistribution,
// as if it had read its own block of the file.
func rankShare(c *mpi.Comm, all *nbody.Particles) *nbody.Particles {
	return share(all, c.Rank(), c.Size())
}

// largest returns the n records with the most particles (ties by tag).
func largest(recs []cosmotools.CenterRecord, n int) []cosmotools.CenterRecord {
	s := append([]cosmotools.CenterRecord(nil), recs...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Count != s[j].Count {
			return s[i].Count > s[j].Count
		}
		return s[i].HaloTag < s[j].HaloTag
	})
	if len(s) > n {
		s = s[:n]
	}
	return s
}

func (a *analysisOffline) inputs() int { return 1 }

func (a *analysisOffline) op(i int, root *ref) (func() (float64, error), error) {
	all, err := a.read(root)
	if err != nil {
		return nil, err
	}
	run := root.begin("mpi.RunRanks")
	centers, err := a.analyse(all, a.e.ranks, run)
	run.end()
	if err != nil {
		return nil, err
	}
	follow, err := a.followUps(all, centers, root)
	if err != nil {
		return nil, err
	}
	outPath := filepath.Join(a.dir, fmt.Sprintf("op%d.centers", i))
	sp := root.begin("catalog.WriteFile")
	err = catalog.WriteFile(outPath, centers)
	sp.end()
	if err != nil {
		return nil, err
	}
	return func() (float64, error) {
		dev, err := a.check(outPath, follow)
		return dev, errors.Join(err, os.Remove(outPath))
	}, nil
}

// followUp is the Level 3 result for one large halo.
type followUp struct {
	tag                            int64
	soParticles, members, subhalos int
}

// subhaloRadius bounds the particle set searched for substructure around
// a center, in Mpc/h: about the extent of the largest FOF halos at this
// mass resolution.
const subhaloRadius = 1.5

// followUps runs the Level 3 analyses seeded at the centers of the
// largest halos ("relies on information obtained by the center finder",
// §4.1): the SO mass at overdensity 200, then substructure among the
// particles around the center. A PM-only halo of a few hundred particles
// can be too diffuse to cross overdensity 200 with the 20 particles
// so.Measure asks for; that is an outcome (soParticles 0), not a failure,
// and the reference records the same.
func (a *analysisOffline) followUps(all *nbody.Particles, centers []cosmotools.CenterRecord, root *ref) ([]followUp, error) {
	sz := a.e.size
	sp := root.begin("kdtree.Build")
	tree, err := kdtree.Build(all.X, all.Y, all.Z, sz.offBox, 16)
	sp.end()
	if err != nil {
		return nil, err
	}
	rho := cosmo.Default().MeanMatterDensity()
	var out []followUp
	for _, h := range largest(centers, sz.topHalos) {
		f := followUp{tag: h.HaloTag}
		sp = root.begin("so.Measure")
		res, err := so.Measure(tree, h.Pos[0], h.Pos[1], h.Pos[2], so.Options{
			ParticleMass: a.mass, Delta: 200, RhoRef: rho, MaxRadius: 3})
		sp.end()
		if err == nil {
			f.soParticles = res.N
		}
		sp = root.begin("kdtree.Tree.Within")
		members := tree.Within(h.Pos[0], h.Pos[1], h.Pos[2], subhaloRadius)
		sp.end()
		f.members = len(members)
		x, y, z := center.Unwrap(all.X, all.Y, all.Z, members, sz.offBox)
		vx := make([]float64, len(members))
		vy := make([]float64, len(members))
		vz := make([]float64, len(members))
		for k, m := range members {
			vx[k], vy[k], vz[k] = all.VX[m], all.VY[m], all.VZ[m]
		}
		sp = root.begin("subhalo.Find")
		found, err := subhalo.Find(x, y, z, vx, vy, vz, subhalo.Options{
			Mass: a.mass, K: 16, MinSize: 20, Softening: softening})
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("halo %d: %w", h.HaloTag, err)
		}
		f.subhalos = len(found.Subhalos)
		out = append(out, f)
	}
	return out, nil
}

// check reads the op's catalog back and counts the records that differ
// from the 1-rank result; the follow-ups must match it exactly.
func (a *analysisOffline) check(path string, follow []followUp) (float64, error) {
	got, err := catalog.ReadFile(path)
	if err != nil {
		return 100, err
	}
	dev := 100 * differingRecords(a.want, got)
	if dev > 0 {
		return dev, fmt.Errorf("%.3g%% of center records differ from the 1-rank analysis", dev)
	}
	if fmt.Sprint(follow) != fmt.Sprint(a.follow) {
		return 100, fmt.Errorf("SO/subhalo follow-ups %v differ from the 1-rank reference %v", follow, a.follow)
	}
	return dev, nil
}
