package cosmotools

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/grid"

	"repro/internal/halo"
	"repro/internal/nbody"
	"repro/internal/powerspec"
)

// testParticles builds a box with two clusters (one large, one small) and
// background noise.
func testParticles(seed int64) (*nbody.Particles, float64) {
	rng := rand.New(rand.NewSource(seed))
	box := 16.0
	p := nbody.NewParticles(0)
	tag := int64(0)
	add := func(n int, cx, cy, cz, r float64) {
		for i := 0; i < n; i++ {
			p.Append(cx+(rng.Float64()-0.5)*r, cy+(rng.Float64()-0.5)*r, cz+(rng.Float64()-0.5)*r,
				rng.NormFloat64()*0.01, rng.NormFloat64()*0.01, rng.NormFloat64()*0.01, tag)
			tag++
		}
	}
	add(400, 4, 4, 4, 0.4)
	add(100, 12, 12, 12, 0.3)
	for i := 0; i < 200; i++ {
		p.Append(rng.Float64()*box, rng.Float64()*box, rng.Float64()*box, 0, 0, 0, tag)
		tag++
	}
	return p, box
}

// --- Config parsing ---

func TestParseConfig(t *testing.T) {
	input := `
# comment
global_key = 1

[powerspectrum]
every = 5
grid = 64

[halofinder]
linking_length = 0.2
steps = 10, 20, 30
`
	cfg, err := ParseConfig(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.SectionNames(); len(got) != 2 || got[0] != "powerspectrum" || got[1] != "halofinder" {
		t.Errorf("sections = %v", got)
	}
	if v, ok := cfg.Lookup("powerspectrum", "every"); !ok || v != "5" {
		t.Errorf("every = %q %v", v, ok)
	}
	if v := cfg.Global()["global_key"]; v != "1" {
		t.Errorf("global = %q", v)
	}
	if keys := cfg.Keys("halofinder"); len(keys) != 2 || keys[0] != "linking_length" {
		t.Errorf("keys = %v", keys)
	}
	if _, ok := cfg.Lookup("missing", "x"); ok {
		t.Error("missing section lookup should fail")
	}
}

func TestParseConfigErrors(t *testing.T) {
	bad := []string{
		"[unclosed\nkey=1",
		"[]\n",
		"keywithoutvalue\n",
		"= novalue\n",
	}
	for i, s := range bad {
		if _, err := ParseConfig(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule(map[string]string{"every": "5", "steps": "3, 7"})
	if err != nil {
		t.Fatal(err)
	}
	if !s.ShouldRun(5) || !s.ShouldRun(10) || !s.ShouldRun(3) || !s.ShouldRun(7) {
		t.Error("schedule misses expected steps")
	}
	if s.ShouldRun(4) {
		t.Error("schedule fired at step 4")
	}
	if _, err := ParseSchedule(map[string]string{"every": "x"}); err == nil {
		t.Error("expected error for bad every")
	}
	if _, err := ParseSchedule(map[string]string{"steps": "1,a"}); err == nil {
		t.Error("expected error for bad steps")
	}
	// every=0 with no steps: never runs.
	s2, _ := ParseSchedule(map[string]string{"every": "0"})
	if s2.ShouldRun(1) || s2.ShouldRun(100) {
		t.Error("disabled schedule fired")
	}
}

func TestParamHelpers(t *testing.T) {
	params := map[string]string{"f": "2.5", "i": "7", "b": "true", "bad": "zzz"}
	if v, err := FloatParam(params, "f", 0); err != nil || v != 2.5 {
		t.Errorf("float = %v %v", v, err)
	}
	if v, err := FloatParam(params, "missing", 9); err != nil || v != 9 {
		t.Errorf("float default = %v %v", v, err)
	}
	if _, err := FloatParam(params, "bad", 0); err == nil {
		t.Error("expected float error")
	}
	if v, err := IntParam(params, "i", 0); err != nil || v != 7 {
		t.Errorf("int = %v %v", v, err)
	}
	if _, err := IntParam(params, "bad", 0); err == nil {
		t.Error("expected int error")
	}
	if v, err := BoolParam(params, "b", false); err != nil || !v {
		t.Errorf("bool = %v %v", v, err)
	}
	if _, err := BoolParam(params, "bad", false); err == nil {
		t.Error("expected bool error")
	}
}

// --- Manager ---

type fakeAlgo struct {
	name     string
	ran      []int
	params   map[string]string
	runEvery int
}

func (f *fakeAlgo) Name() string { return f.name }
func (f *fakeAlgo) SetParameters(p map[string]string) error {
	f.params = p
	return nil
}
func (f *fakeAlgo) ShouldExecute(ctx *Context) bool {
	return f.runEvery > 0 && ctx.Step%f.runEvery == 0
}
func (f *fakeAlgo) Execute(ctx *Context) error {
	f.ran = append(f.ran, ctx.Step)
	ctx.Outputs[f.name+"/out"] = ctx.Step
	return nil
}

func TestManagerRegisterRejectsDuplicates(t *testing.T) {
	var m Manager
	if err := m.Register(&fakeAlgo{name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(&fakeAlgo{name: "a"}); err == nil {
		t.Error("expected duplicate error")
	}
	if got := m.Algorithms(); len(got) != 1 || got[0] != "a" {
		t.Errorf("algorithms = %v", got)
	}
}

func TestManagerExecuteHonoursShouldExecute(t *testing.T) {
	var m Manager
	a := &fakeAlgo{name: "a", runEvery: 2}
	b := &fakeAlgo{name: "b", runEvery: 3}
	if err := m.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(b); err != nil {
		t.Fatal(err)
	}
	p := nbody.NewParticles(0)
	var ctx *Context
	for step := 1; step <= 6; step++ {
		ctx = NewContext(step, 0.5, 10, 1, p)
		if err := m.Execute(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if keys := ctx.SortedOutputKeys(); fmt.Sprint(keys) != "[a/out b/out]" {
		t.Errorf("step 6 output keys = %v", keys)
	}
	if fmt.Sprint(a.ran) != "[2 4 6]" {
		t.Errorf("a ran %v", a.ran)
	}
	if fmt.Sprint(b.ran) != "[3 6]" {
		t.Errorf("b ran %v", b.ran)
	}
}

func TestManagerConfigure(t *testing.T) {
	var m Manager
	a := &fakeAlgo{name: "a"}
	if err := m.Register(a); err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfig(strings.NewReader("[a]\nkey = val\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if a.params["key"] != "val" {
		t.Errorf("params = %v", a.params)
	}
	bad, _ := ParseConfig(strings.NewReader("[nosuch]\nk=1\n"))
	if err := m.Configure(bad); err == nil {
		t.Error("expected error for unknown section")
	}
}

func TestNewContextDerivesRedshift(t *testing.T) {
	ctx := NewContext(1, 0.25, 10, 1, nil)
	if ctx.Redshift != 3 {
		t.Errorf("z = %v", ctx.Redshift)
	}
}

// --- Real algorithms end-to-end ---

func TestPowerSpectrumAlgorithm(t *testing.T) {
	p, box := testParticles(1)
	ps := NewPowerSpectrum()
	if err := ps.SetParameters(map[string]string{"grid": "16", "bins": "8", "every": "2"}); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(2, 1, box, 1, p)
	if !ps.ShouldExecute(ctx) {
		t.Fatal("should execute at step 2")
	}
	if err := ps.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	res := ctx.Outputs["powerspectrum/pk"].(*powerspec.Result)
	if len(res.P) != 8 {
		t.Errorf("bins = %d", len(res.P))
	}
	ctx3 := NewContext(3, 1, box, 1, p)
	if ps.ShouldExecute(ctx3) {
		t.Error("should not execute at step 3")
	}
}

func TestHaloFinderWithoutSplit(t *testing.T) {
	p, box := testParticles(2)
	hf := NewHaloFinder()
	if err := hf.SetParameters(map[string]string{
		"linking_length": "0.3", "min_size": "50", "split_threshold": "0",
	}); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(1, 1, box, 1, p)
	if err := hf.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	cat := ctx.Outputs["halofinder/catalog"].(*halo.Catalog)
	if len(cat.Halos) < 2 {
		t.Fatalf("halos = %d", len(cat.Halos))
	}
	centers := ctx.Outputs["halofinder/centers"].([]CenterRecord)
	if len(centers) != len(cat.Halos) {
		t.Errorf("centers = %d, halos = %d", len(centers), len(cat.Halos))
	}
	l2 := ctx.Outputs["halofinder/level2"].(*Level2)
	if l2.Particles.N() != 0 {
		t.Errorf("level2 should be empty without split, got %d", l2.Particles.N())
	}
	// Catalog entries updated with MBP info.
	for i := range cat.Halos {
		if cat.Halos[i].MBPTag < 0 {
			t.Errorf("halo %d missing MBP tag", i)
		}
	}
}

func TestHaloFinderSplitExtractsLevel2(t *testing.T) {
	p, box := testParticles(3)
	hf := NewHaloFinder()
	if err := hf.SetParameters(map[string]string{
		"linking_length": "0.3", "min_size": "50", "split_threshold": "200",
	}); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(1, 1, box, 1, p)
	if err := hf.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	cat := ctx.Outputs["halofinder/catalog"].(*halo.Catalog)
	centers := ctx.Outputs["halofinder/centers"].([]CenterRecord)
	l2 := ctx.Outputs["halofinder/level2"].(*Level2)
	// The 400-particle cluster exceeds the 200 threshold -> Level 2.
	if len(l2.Spans) != 1 {
		t.Fatalf("level2 spans = %d", len(l2.Spans))
	}
	span := l2.Spans[0]
	if span.End-span.Start != cat.Halos[0].Count() {
		t.Errorf("span size = %d, largest halo = %d", span.End-span.Start, cat.Halos[0].Count())
	}
	// Centers were found only for the small halo(s).
	for _, c := range centers {
		if c.Count > 200 {
			t.Errorf("center computed in-situ for halo of %d > threshold", c.Count)
		}
	}
	// The large halo's catalog entry has no MBP yet.
	if cat.Halos[0].MBP != -1 {
		t.Error("large halo should not have an in-situ MBP")
	}
}

func TestSOMassRequiresHaloFinder(t *testing.T) {
	p, box := testParticles(4)
	s := NewSOMass()
	ctx := NewContext(1, 1, box, 1, p)
	if err := s.Execute(ctx); err == nil {
		t.Error("expected dependency error")
	}
}

func TestSOMassAfterHaloFinder(t *testing.T) {
	p, box := testParticles(5)
	hf := NewHaloFinder()
	if err := hf.SetParameters(map[string]string{"linking_length": "0.3", "min_size": "50"}); err != nil {
		t.Fatal(err)
	}
	s := NewSOMass()
	// Reference density = mean particle density of the test box.
	rhoMean := float64(p.N()) / (box * box * box)
	if err := s.SetParameters(map[string]string{
		"delta": "20", "rho_ref": fmt.Sprint(rhoMean), "max_radius": "2", "min_particles": "20",
	}); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(1, 1, box, 1, p)
	if err := hf.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	records := ctx.Outputs["somass/records"].([]SORecord)
	if len(records) == 0 {
		t.Fatal("no SO records")
	}
	for _, r := range records {
		if r.Mass <= 0 || r.Radius <= 0 || r.N < 20 {
			t.Errorf("bad record %+v", r)
		}
	}
}

func TestSubhaloFinderAfterHaloFinder(t *testing.T) {
	p, box := testParticles(6)
	hf := NewHaloFinder()
	if err := hf.SetParameters(map[string]string{"linking_length": "0.3", "min_size": "50"}); err != nil {
		t.Fatal(err)
	}
	sf := NewSubhaloFinder()
	if err := sf.SetParameters(map[string]string{"min_halo_size": "300", "k": "16", "min_size": "30"}); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(1, 1, box, 1, p)
	if err := hf.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sf.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	records := ctx.Outputs["subhalofinder/records"].([]SubhaloRecord)
	// Only the 400-particle halo exceeds min_halo_size 300.
	if len(records) != 1 {
		t.Fatalf("records = %d", len(records))
	}
	if records[0].ParentCount < 300 {
		t.Errorf("parent = %d", records[0].ParentCount)
	}
	if err := ctxDependencyError(sf); err != nil {
		t.Error(err)
	}
}

func ctxDependencyError(sf *SubhaloFinder) error {
	ctx := NewContext(1, 1, 10, 1, nbody.NewParticles(0))
	if err := sf.Execute(ctx); err == nil {
		return fmt.Errorf("expected dependency error without halofinder")
	}
	return nil
}

// Full pipeline through the manager with config-driven setup.
func TestManagerFullPipeline(t *testing.T) {
	p, box := testParticles(7)
	rhoMean := float64(p.N()) / (box * box * box)
	cfgText := fmt.Sprintf(`
[powerspectrum]
every = 1
grid = 16
bins = 8

[halofinder]
every = 1
linking_length = 0.3
min_size = 50
split_threshold = 300

[somass]
every = 1
delta = 20
rho_ref = %g
max_radius = 2

[subhalofinder]
every = 1
min_halo_size = 300
min_size = 30
`, rhoMean)
	cfg, err := ParseConfig(strings.NewReader(cfgText))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewStandardManager(cfg, box, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(1, 1, box, 1, p)
	if err := m.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"powerspectrum/pk", "halofinder/catalog", "halofinder/centers", "halofinder/level2", "somass/records", "subhalofinder/records"} {
		if _, ok := ctx.Outputs[key]; !ok {
			t.Errorf("missing output %s (have %v)", key, ctx.SortedOutputKeys())
		}
	}
	// The config has no [haloproperties] section, so that tool stays
	// registered but dormant.
	if _, ok := ctx.Outputs["haloproperties/records"]; ok {
		t.Error("haloproperties ran without a config section scheduling it")
	}

	// Without a config the standard tools run on defaults scaled to the
	// run: linking length 0.2x the mean inter-particle spacing.
	m, err = NewStandardManager(nil, 64, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(m.Algorithms()); got != "[powerspectrum halofinder somass subhalofinder haloproperties]" {
		t.Errorf("standard tools = %s", got)
	}
	hf := m.algorithms[1].(*HaloFinder)
	ps := m.algorithms[0].(*PowerSpectrum)
	if hf.LinkingLength != 0.2*64/32 || hf.MinSize != 10 || ps.Grid != 16 {
		t.Errorf("defaults: linking length %g, min size %d, P(k) grid %d", hf.LinkingLength, hf.MinSize, ps.Grid)
	}
}

func TestHaloPropertiesRequiresHaloFinder(t *testing.T) {
	p, box := testParticles(8)
	hp := NewHaloProperties()
	ctx := NewContext(1, 1, box, 1, p)
	if err := hp.Execute(ctx); err == nil {
		t.Error("expected dependency error")
	}
}

func TestHaloPropertiesRecords(t *testing.T) {
	p, box := testParticles(9)
	hf := NewHaloFinder()
	if err := hf.SetParameters(map[string]string{"linking_length": "0.3", "min_size": "50"}); err != nil {
		t.Fatal(err)
	}
	hp := NewHaloProperties()
	if err := hp.SetParameters(map[string]string{"min_halo_size": "80", "bins": "10"}); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(1, 1, box, 1, p)
	if err := hf.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if err := hp.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	records := ctx.Outputs["haloproperties/records"].([]PropertyRecord)
	if len(records) < 1 {
		t.Fatal("no property records")
	}
	for _, r := range records {
		if r.Count < 80 {
			t.Errorf("record below min size: %+v", r)
		}
		if r.BA <= 0 || r.BA > 1 || r.CA <= 0 || r.CA > r.BA+1e-9 {
			t.Errorf("bad axis ratios: %+v", r)
		}
		if r.SigmaV < 0 {
			t.Errorf("negative dispersion: %+v", r)
		}
	}
}

// The §3.3.2 claim at the workflow level: measuring the same halo's
// concentration around its MBP versus around a degraded (COM) center must
// not increase it.
func TestPropertiesCenterSensitivity(t *testing.T) {
	p, box := testParticles(10)
	hf := NewHaloFinder()
	if err := hf.SetParameters(map[string]string{"linking_length": "0.3", "min_size": "200"}); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(1, 1, box, 1, p)
	if err := hf.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	cat := ctx.Outputs["halofinder/catalog"].(*halo.Catalog)
	if len(cat.Halos) == 0 {
		t.Skip("no big halo in this realization")
	}
	hl := &cat.Halos[0]
	withMBP, err := MeasureProperties(p, box, hl, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	noCenter := *hl
	noCenter.MBP = -1 // degrade to center of mass
	withCOM, err := MeasureProperties(p, box, &noCenter, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if withMBP.Concentration == 0 || withCOM.Concentration == 0 {
		t.Skip("NFW fit unavailable for this halo")
	}
	// COM of a random test clump is close to the density peak, so allow
	// equality within noise; what must not happen is a big increase.
	if withCOM.Concentration > withMBP.Concentration*1.5 {
		t.Errorf("COM center concentration %v ≫ MBP %v", withCOM.Concentration, withMBP.Concentration)
	}
}

func TestHaloTrackerStateAcrossSteps(t *testing.T) {
	p1, box := testParticles(11)
	ht := NewHaloTracker()
	hf := NewHaloFinder()
	if err := hf.SetParameters(map[string]string{"linking_length": "0.3", "min_size": "50"}); err != nil {
		t.Fatal(err)
	}
	// Step 1: no links yet (no previous snapshot).
	ctx1 := NewContext(1, 0.9, box, 1, p1)
	if err := hf.Execute(ctx1); err != nil {
		t.Fatal(err)
	}
	if err := ht.Execute(ctx1); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx1.Outputs["halotracker/links"]; ok {
		t.Error("first step should not emit links")
	}
	// Step 2: same particles slightly drifted -> persistent links.
	p2 := p1.Clone()
	for i := range p2.X {
		p2.X[i] += 0.01
	}
	p2.WrapPeriodic(box)
	ctx2 := NewContext(2, 1.0, box, 1, p2)
	if err := hf.Execute(ctx2); err != nil {
		t.Fatal(err)
	}
	if err := ht.Execute(ctx2); err != nil {
		t.Fatal(err)
	}
	out, ok := ctx2.Outputs["halotracker/links"].(TrackerOutput)
	if !ok {
		t.Fatal("no tracker output at step 2")
	}
	if out.FromStep != 1 || out.ToStep != 2 {
		t.Errorf("steps = %d -> %d", out.FromStep, out.ToStep)
	}
	if len(out.Matches.Links) == 0 {
		t.Error("no links between nearly identical snapshots")
	}
	for _, l := range out.Matches.Links {
		if l.ProgenitorTag != l.DescendantTag {
			t.Errorf("drifted halo changed identity: %+v", l)
		}
	}
}

func TestHaloTrackerRequiresHaloFinder(t *testing.T) {
	p, box := testParticles(12)
	ht := NewHaloTracker()
	ctx := NewContext(1, 1, box, 1, p)
	if err := ht.Execute(ctx); err == nil {
		t.Error("expected dependency error")
	}
}

func TestParticleSampler(t *testing.T) {
	p, box := testParticles(13)
	ps := NewParticleSampler()
	if err := ps.SetParameters(map[string]string{"fraction": "0.1", "seed": "7"}); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(1, 1, box, 1, p)
	if err := ps.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	sub := ctx.Outputs["particlesampler/subsample"].(*nbody.Particles)
	want := p.N() / 10
	if sub.N() < want-2 || sub.N() > want+2 {
		t.Errorf("subsample N = %d, want ~%d", sub.N(), want)
	}
	// Different steps draw different samples.
	ctx2 := NewContext(2, 1, box, 1, p)
	if err := ps.Execute(ctx2); err != nil {
		t.Fatal(err)
	}
	sub2 := ctx2.Outputs["particlesampler/subsample"].(*nbody.Particles)
	same := sub.N() == sub2.N()
	if same {
		for i := 0; i < sub.N(); i++ {
			if sub.Tag[i] != sub2.Tag[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different steps drew identical samples")
	}
	if err := ps.SetParameters(map[string]string{"fraction": "1.5"}); err == nil {
		t.Error("expected fraction error")
	}
}

func TestDensityFieldAlgorithm(t *testing.T) {
	p, box := testParticles(14)
	df := NewDensityField()
	if err := df.SetParameters(map[string]string{"resolution": "16"}); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(1, 1, box, 1, p)
	if err := df.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	g := ctx.Outputs["densityfield/delta"].(*grid.Scalar)
	if g.N != 16 || g.BoxSize != box {
		t.Errorf("grid = %d/%v", g.N, g.BoxSize)
	}
	// Density contrast has zero mean; the cluster cell is overdense.
	if math.Abs(g.Mean()) > 1e-9 {
		t.Errorf("mean delta = %v", g.Mean())
	}
	if g.At(4, 4, 4) < 1 { // the 400-particle cluster sits at (4,4,4)
		t.Errorf("cluster cell delta = %v, want overdense", g.At(4, 4, 4))
	}
	// Round-trip through the Level 2 serialization.
	var buf bytes.Buffer
	if err := g.WriteField(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := grid.ReadScalar(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.At(4, 4, 4) != g.At(4, 4, 4) {
		t.Error("serialization round trip changed values")
	}
}

// SetParameters error paths and schedule handling for every algorithm,
// plus the interface identity methods the manager relies on.
func TestAllAlgorithmsParameterErrors(t *testing.T) {
	algos := map[string]Algorithm{
		"powerspectrum":   NewPowerSpectrum(),
		"halofinder":      NewHaloFinder(),
		"somass":          NewSOMass(),
		"subhalofinder":   NewSubhaloFinder(),
		"haloproperties":  NewHaloProperties(),
		"halotracker":     NewHaloTracker(),
		"particlesampler": NewParticleSampler(),
		"densityfield":    NewDensityField(),
	}
	numericKeys := map[string][]string{
		"powerspectrum":   {"grid", "bins"},
		"halofinder":      {"linking_length", "min_size", "split_threshold", "softening"},
		"somass":          {"delta", "rho_ref", "max_radius", "min_particles"},
		"subhalofinder":   {"min_halo_size", "k", "min_size", "softening"},
		"haloproperties":  {"min_halo_size", "bins", "rmin_fraction"},
		"halotracker":     {"min_shared"},
		"particlesampler": {"fraction", "seed"},
		"densityfield":    {"resolution"},
	}
	for name, a := range algos {
		if a.Name() != name {
			t.Errorf("%s: Name() = %q", name, a.Name())
		}
		// Bad schedule rejected everywhere.
		if err := a.SetParameters(map[string]string{"every": "zzz"}); err == nil {
			t.Errorf("%s: bad schedule accepted", name)
		}
		// Each numeric key rejects garbage.
		for _, key := range numericKeys[name] {
			if err := a.SetParameters(map[string]string{key: "not-a-number"}); err == nil {
				t.Errorf("%s: bad %s accepted", name, key)
			}
		}
		// Explicit schedule override works.
		if err := a.SetParameters(map[string]string{"every": "3"}); err != nil {
			t.Errorf("%s: valid schedule rejected: %v", name, err)
		}
		ctx := NewContext(3, 1, 10, 1, nbody.NewParticles(0))
		if !a.ShouldExecute(ctx) {
			t.Errorf("%s: should execute at step 3 with every=3", name)
		}
		ctx4 := NewContext(4, 1, 10, 1, nbody.NewParticles(0))
		if a.ShouldExecute(ctx4) {
			t.Errorf("%s: should not execute at step 4 with every=3", name)
		}
	}
}

func TestParseConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/c.ini"
	if err := os.WriteFile(path, []byte("[s]\nk = v\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cfg.Lookup("s", "k"); v != "v" {
		t.Errorf("k = %q", v)
	}
	if _, err := ParseConfigFile(dir + "/missing.ini"); err == nil {
		t.Error("expected missing-file error")
	}
}
