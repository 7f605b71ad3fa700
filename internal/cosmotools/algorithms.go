package cosmotools

import (
	"fmt"

	"repro/internal/center"
	"repro/internal/gio"
	"repro/internal/halo"
	"repro/internal/kdtree"
	"repro/internal/nbody"
	"repro/internal/powerspec"
	"repro/internal/so"
	"repro/internal/subhalo"
)

// CenterRecord is one halo-center result (a Level 3 product).
type CenterRecord struct {
	// HaloTag identifies the halo (min particle tag).
	HaloTag int64
	// MBPTag is the most bound particle's tag.
	MBPTag int64
	// Pos is the MBP position.
	Pos [3]float64
	// Potential is the MBP potential.
	Potential float64
	// Count is the halo's particle count.
	Count int
}

// Level2Span locates one large halo inside a Level 2 particle payload.
type Level2Span struct {
	Tag        int64
	Start, End int // [Start, End) in the Level 2 particle container
}

// Level2 is the reduced data product handed to off-line analysis: only the
// particles of halos above the split threshold ("We printed out all the
// particles that reside in halos with more than 300,000 particles to the
// file system — the resulting data (Level 2) was a factor of 5 less than
// the raw data at Level 1", §4.1).
type Level2 struct {
	Particles *nbody.Particles
	Spans     []Level2Span
}

// Blocks is the Level 2 file layout: one gio block per large halo, in span
// order. The halo tag is not stored — it is the block's minimum particle
// tag, which is how Level2FromBlocks recovers it.
func (l2 *Level2) Blocks() []gio.Block {
	blocks := make([]gio.Block, len(l2.Spans))
	for b, span := range l2.Spans {
		idx := make([]int, span.End-span.Start)
		for k := range idx {
			idx[k] = span.Start + k
		}
		blocks[b] = gio.Block{Rank: b, Particles: l2.Particles.Select(idx)}
	}
	return blocks
}

// Level2FromBlocks rebuilds the product from the blocks of a Level 2 file,
// the inverse of Blocks. A block without particles is an error: no halo is
// empty, so such a file was not written by Blocks.
func Level2FromBlocks(blocks []gio.Block) (*Level2, error) {
	l2 := &Level2{}
	start := 0
	for b, blk := range blocks {
		n := blk.Particles.N()
		if n == 0 {
			return nil, fmt.Errorf("cosmotools: Level 2 block %d holds no particles", b)
		}
		tag := blk.Particles.Tag[0]
		for _, t := range blk.Particles.Tag {
			if t < tag {
				tag = t
			}
		}
		l2.Spans = append(l2.Spans, Level2Span{Tag: tag, Start: start, End: start + n})
		start += n
	}
	l2.Particles = gio.Merge(blocks)
	return l2, nil
}

// --- Power spectrum ---

// PowerSpectrum computes the density fluctuation power spectrum, the
// paper's example of an analysis that belongs fully in-situ. It keeps one
// grid and FFT cube across steps, so Execute is not safe for concurrent
// use (the Manager runs algorithms in sequence).
type PowerSpectrum struct {
	sched EverySchedule
	// Grid is the FFT mesh dimension; Bins the number of k bins.
	Grid, Bins int
	meter      powerspec.Meter
}

// NewPowerSpectrum returns the algorithm with sensible defaults (run every
// step, grid chosen by the caller's config).
func NewPowerSpectrum() *PowerSpectrum {
	return &PowerSpectrum{sched: EverySchedule{Every: 1}, Grid: 32, Bins: 16}
}

// Name implements Algorithm.
func (p *PowerSpectrum) Name() string { return "powerspectrum" }

// SetParameters implements Algorithm. Keys: every, steps, grid, bins. It
// changes nothing when it fails.
func (p *PowerSpectrum) SetParameters(params map[string]string) error {
	sched, err := MaybeParseSchedule(params, p.sched)
	if err != nil {
		return err
	}
	grid, err := IntParam(params, "grid", p.Grid)
	if err != nil {
		return err
	}
	bins, err := IntParam(params, "bins", p.Bins)
	if err != nil {
		return err
	}
	// Reject here what Execute would reject after the first steps ran.
	if err := powerspec.Check(grid, bins); err != nil {
		return err
	}
	p.sched, p.Grid, p.Bins = sched, grid, bins
	return nil
}

// ShouldExecute implements Algorithm.
func (p *PowerSpectrum) ShouldExecute(ctx *Context) bool { return p.sched.ShouldRun(ctx.Step) }

// Execute implements Algorithm, storing "powerspectrum/pk".
func (p *PowerSpectrum) Execute(ctx *Context) error {
	res, err := p.meter.Measure(ctx.Particles, ctx.Box, p.Grid, p.Bins)
	if err != nil {
		return err
	}
	ctx.Outputs["powerspectrum/pk"] = res
	return nil
}

// --- Halo finding with the combined-workflow split ---

// HaloFinder runs ParallelAnalysis over the context's ranks: overload FOF
// and the in-situ half of the center-finding split. Centers for halos at
// or below SplitThreshold are computed immediately; particles of larger
// halos are extracted as Level 2 data for off-line/co-scheduled analysis.
// A SplitThreshold of 0 disables the split (everything in-situ), matching
// the paper's pure in-situ workflow.
type HaloFinder struct {
	sched EverySchedule
	// LinkingLength, MinSize: FOF parameters.
	LinkingLength float64
	MinSize       int
	// SplitThreshold is the particle-count cut (the paper's 300,000).
	// Halos strictly above it are deferred to Level 2.
	SplitThreshold int
	// Softening for MBP potentials.
	Softening float64
}

// overloadLinks is the overload width in linking lengths: 20 b is four mean
// spacings at b = 0.2, so a rank sees each halo it owns whole (§3.3.1).
const overloadLinks = 20

// NewHaloFinder returns a halo finder with paper-like defaults.
func NewHaloFinder() *HaloFinder {
	return &HaloFinder{
		sched:          EverySchedule{Every: 1},
		LinkingLength:  0.2,
		MinSize:        40,
		SplitThreshold: 0,
		Softening:      1e-3,
	}
}

// Name implements Algorithm.
func (h *HaloFinder) Name() string { return "halofinder" }

// SetParameters implements Algorithm. Keys: every, steps, linking_length,
// min_size, split_threshold, softening.
func (h *HaloFinder) SetParameters(params map[string]string) error {
	sched, err := MaybeParseSchedule(params, h.sched)
	if err != nil {
		return err
	}
	h.sched = sched
	if h.LinkingLength, err = FloatParam(params, "linking_length", h.LinkingLength); err != nil {
		return err
	}
	if h.MinSize, err = IntParam(params, "min_size", h.MinSize); err != nil {
		return err
	}
	if h.SplitThreshold, err = IntParam(params, "split_threshold", h.SplitThreshold); err != nil {
		return err
	}
	if h.Softening, err = FloatParam(params, "softening", h.Softening); err != nil {
		return err
	}
	return nil
}

// ShouldExecute implements Algorithm.
func (h *HaloFinder) ShouldExecute(ctx *Context) bool { return h.sched.ShouldRun(ctx.Step) }

// Execute implements Algorithm. Outputs:
//
//	halofinder/catalog  *halo.Catalog — the halos this rank owns
//	halofinder/centers  []CenterRecord — centers found in-situ, by halo tag
//	halofinder/level2   *Level2 — particles of halos above the threshold
func (h *HaloFinder) Execute(ctx *Context) error {
	pp, err := ParallelAnalysis(ctx.Comm, ctx.Particles, ctx.Box, overloadLinks*h.LinkingLength,
		halo.Options{LinkingLength: h.LinkingLength, MinSize: h.MinSize}, h.SplitThreshold,
		center.Options{Mass: ctx.ParticleMass, Softening: h.Softening})
	if err != nil {
		return err
	}
	ctx.Outputs["halofinder/catalog"] = pp.Catalog
	ctx.Outputs["halofinder/centers"] = GatherCenters(ctx.Comm, pp.Centers)
	ctx.Outputs["halofinder/level2"] = GatherLevel2(ctx.Comm, pp.Level2)
	return nil
}

// SplitCenterFinding performs the combined workflow's division of labour:
// MBP centers for halos with Count <= threshold (or all, when threshold
// <= 0), and a Level 2 extraction of the rest. ParallelAnalysis runs it
// over each rank's owned halos.
func SplitCenterFinding(p *nbody.Particles, box float64, cat *halo.Catalog, threshold int, o center.Options) ([]CenterRecord, *Level2, error) {
	var centers []CenterRecord
	l2 := &Level2{}
	var extracted []int // members of the halos left for off-line, in span order
	for hi := range cat.Halos {
		hl := &cat.Halos[hi]
		if threshold > 0 && hl.Count() > threshold {
			start := len(extracted)
			extracted = append(extracted, hl.Indices...)
			l2.Spans = append(l2.Spans, Level2Span{Tag: hl.Tag, Start: start, End: len(extracted)})
			continue
		}
		rec, err := FindCenter(p, box, hl, o)
		if err != nil {
			return nil, nil, err
		}
		hl.MBP = hl.Indices[rec.memberPos]
		hl.MBPTag = rec.MBPTag
		centers = append(centers, rec.CenterRecord)
	}
	l2.Particles = p.Select(extracted)
	return centers, l2, nil
}

// centerResult augments a CenterRecord with the member position used to
// update catalog entries.
type centerResult struct {
	CenterRecord
	memberPos int
}

// FindCenter computes one halo's MBP with the data-parallel brute-force
// finder after periodic unwrapping.
func FindCenter(p *nbody.Particles, box float64, hl *halo.Halo, o center.Options) (centerResult, error) {
	ux, uy, uz := center.Unwrap(p.X, p.Y, p.Z, hl.Indices, box)
	res, err := center.BruteForce(ux, uy, uz, o)
	if err != nil {
		return centerResult{}, fmt.Errorf("cosmotools: center for halo %d: %w", hl.Tag, err)
	}
	gi := hl.Indices[res.Index]
	return centerResult{
		CenterRecord: CenterRecord{
			HaloTag:   hl.Tag,
			MBPTag:    p.Tag[gi],
			Pos:       [3]float64{p.X[gi], p.Y[gi], p.Z[gi]},
			Potential: res.Potential,
			Count:     hl.Count(),
		},
		memberPos: res.Index,
	}, nil
}

// --- Spherical overdensity masses ---

// SOMass measures spherical-overdensity masses seeded at the halo centers
// found by the halo finder; it therefore must be registered after
// HaloFinder ("the three halo analysis steps have to be carried out in
// sequence", §4.1).
type SOMass struct {
	sched EverySchedule
	// Delta is the overdensity threshold; RhoRef the reference density.
	Delta, RhoRef float64
	// MaxRadius bounds the search sphere.
	MaxRadius float64
	// MinParticles for a valid measurement.
	MinParticles int
}

// NewSOMass returns an SO measurer with Δ=200 defaults; RhoRef must be set
// via parameters or field assignment before use.
func NewSOMass() *SOMass {
	return &SOMass{sched: EverySchedule{Every: 1}, Delta: 200, MaxRadius: 3, MinParticles: 20}
}

// Name implements Algorithm.
func (s *SOMass) Name() string { return "somass" }

// SetParameters implements Algorithm. Keys: every, steps, delta, rho_ref,
// max_radius, min_particles.
func (s *SOMass) SetParameters(params map[string]string) error {
	sched, err := MaybeParseSchedule(params, s.sched)
	if err != nil {
		return err
	}
	s.sched = sched
	if s.Delta, err = FloatParam(params, "delta", s.Delta); err != nil {
		return err
	}
	if s.RhoRef, err = FloatParam(params, "rho_ref", s.RhoRef); err != nil {
		return err
	}
	if s.MaxRadius, err = FloatParam(params, "max_radius", s.MaxRadius); err != nil {
		return err
	}
	if s.MinParticles, err = IntParam(params, "min_particles", s.MinParticles); err != nil {
		return err
	}
	return nil
}

// ShouldExecute implements Algorithm.
func (s *SOMass) ShouldExecute(ctx *Context) bool { return s.sched.ShouldRun(ctx.Step) }

// SORecord is one SO measurement keyed by halo tag.
type SORecord struct {
	HaloTag int64
	Mass    float64
	Radius  float64
	N       int
}

// Execute implements Algorithm, reading "halofinder/centers" and storing
// "somass/records". Halos whose SO sphere is invalid (too few particles)
// are skipped, not fatal.
func (s *SOMass) Execute(ctx *Context) error {
	centersAny, ok := ctx.Outputs["halofinder/centers"]
	if !ok {
		return fmt.Errorf("cosmotools: somass requires halofinder to run first")
	}
	centers := centersAny.([]CenterRecord)
	tree, err := kdtree.Build(ctx.Particles.X, ctx.Particles.Y, ctx.Particles.Z, ctx.Box, 16)
	if err != nil {
		return err
	}
	var out []SORecord
	for _, c := range centers {
		res, err := so.Measure(tree, c.Pos[0], c.Pos[1], c.Pos[2], so.Options{
			ParticleMass: ctx.ParticleMass,
			Delta:        s.Delta,
			RhoRef:       s.RhoRef,
			MaxRadius:    s.MaxRadius,
			MinParticles: s.MinParticles,
		})
		if err != nil {
			continue
		}
		out = append(out, SORecord{HaloTag: c.HaloTag, Mass: res.Mass, Radius: res.Radius, N: res.N})
	}
	ctx.Outputs["somass/records"] = out
	return nil
}

// --- Subhalo finding ---

// SubhaloFinder identifies substructure in halos above MinHaloSize
// ("subhalos were found for halos with more than 5000 particles", §4.2).
type SubhaloFinder struct {
	sched EverySchedule
	// MinHaloSize is the smallest parent halo analyzed.
	MinHaloSize int
	// K neighbours for the density estimate; MinSize for surviving
	// subhalos.
	K, MinSize int
	// Softening for unbinding potentials.
	Softening float64
}

// NewSubhaloFinder returns a finder with paper-like defaults.
func NewSubhaloFinder() *SubhaloFinder {
	return &SubhaloFinder{sched: EverySchedule{Every: 1}, MinHaloSize: 5000, K: 16, MinSize: 20, Softening: 1e-3}
}

// Name implements Algorithm.
func (s *SubhaloFinder) Name() string { return "subhalofinder" }

// SetParameters implements Algorithm. Keys: every, steps, min_halo_size,
// k, min_size, softening.
func (s *SubhaloFinder) SetParameters(params map[string]string) error {
	sched, err := MaybeParseSchedule(params, s.sched)
	if err != nil {
		return err
	}
	s.sched = sched
	if s.MinHaloSize, err = IntParam(params, "min_halo_size", s.MinHaloSize); err != nil {
		return err
	}
	if s.K, err = IntParam(params, "k", s.K); err != nil {
		return err
	}
	if s.MinSize, err = IntParam(params, "min_size", s.MinSize); err != nil {
		return err
	}
	if s.Softening, err = FloatParam(params, "softening", s.Softening); err != nil {
		return err
	}
	return nil
}

// ShouldExecute implements Algorithm.
func (s *SubhaloFinder) ShouldExecute(ctx *Context) bool { return s.sched.ShouldRun(ctx.Step) }

// SubhaloRecord summarizes the substructure of one parent halo.
type SubhaloRecord struct {
	HaloTag       int64
	ParentCount   int
	SubhaloCounts []int
}

// Execute implements Algorithm, reading "halofinder/catalog" and storing
// "subhalofinder/records".
func (s *SubhaloFinder) Execute(ctx *Context) error {
	catAny, ok := ctx.Outputs["halofinder/catalog"]
	if !ok {
		return fmt.Errorf("cosmotools: subhalofinder requires halofinder to run first")
	}
	cat := catAny.(*halo.Catalog)
	p := ctx.Particles
	var out []SubhaloRecord
	for hi := range cat.Halos {
		hl := &cat.Halos[hi]
		if hl.Count() < s.MinHaloSize {
			continue
		}
		ux, uy, uz := center.Unwrap(p.X, p.Y, p.Z, hl.Indices, ctx.Box)
		vx := make([]float64, hl.Count())
		vy := make([]float64, hl.Count())
		vz := make([]float64, hl.Count())
		for k, i := range hl.Indices {
			vx[k], vy[k], vz[k] = p.VX[i], p.VY[i], p.VZ[i]
		}
		res, err := subhalo.Find(ux, uy, uz, vx, vy, vz, subhalo.Options{
			Mass:      ctx.ParticleMass,
			K:         s.K,
			MinSize:   s.MinSize,
			Softening: s.Softening,
		})
		if err != nil {
			return err
		}
		rec := SubhaloRecord{HaloTag: hl.Tag, ParentCount: hl.Count()}
		for _, sh := range res.Subhalos {
			rec.SubhaloCounts = append(rec.SubhaloCounts, sh.Count())
		}
		out = append(out, rec)
	}
	ctx.Outputs["subhalofinder/records"] = out
	return nil
}
