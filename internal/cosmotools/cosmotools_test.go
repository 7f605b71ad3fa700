package cosmotools

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

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
	if v := cfg.Section("powerspectrum")["every"]; v != "5" {
		t.Errorf("every = %q", v)
	}
	if v := cfg.Section("")["global_key"]; v != "1" {
		t.Errorf("global = %q", v)
	}
	if hf := cfg.Section("halofinder"); len(hf) != 2 || hf["linking_length"] != "0.2" || hf["steps"] != "10, 20, 30" {
		t.Errorf("halofinder = %v", hf)
	}
	if got := cfg.Section("missing"); len(got) != 0 {
		t.Errorf("missing section = %v, want empty", got)
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
	params := map[string]string{"f": "2.5", "i": "7", "bad": "zzz"}
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
	if got := algorithmNames(&m); len(got) != 1 || got[0] != "a" {
		t.Errorf("algorithms = %v", got)
	}
}

// algorithmNames returns the registered algorithm names in registration
// order.
func algorithmNames(m *Manager) []string {
	names := make([]string, len(m.algorithms))
	for i, a := range m.algorithms {
		names[i] = a.Name()
	}
	return names
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
	if len(ctx.Outputs) != 2 || ctx.Outputs["a/out"] != 6 || ctx.Outputs["b/out"] != 6 {
		t.Errorf("step 6 outputs = %v, want a/out and b/out at 6", ctx.Outputs)
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

// A grid the FFT cannot run, or no bins, is a configuration error, with
// the message Execute would give at the first analysis step.
func TestPowerSpectrumSetParametersRejectsUnrunnableGrid(t *testing.T) {
	p, box := testParticles(1)
	for _, tc := range []struct {
		grid, bins int
		want       string
	}{
		{48, 16, "fft: cube dimension 48 is not a power of two"},
		{0, 16, "grid: dimension 0 must be positive"},
		{-8, 16, "grid: dimension -8 must be positive"},
		{32, 0, "powerspec: nBins=0 must be positive"},
		{32, -3, "powerspec: nBins=-3 must be positive"},
	} {
		params := map[string]string{"grid": fmt.Sprint(tc.grid), "bins": fmt.Sprint(tc.bins)}
		if err := NewPowerSpectrum().SetParameters(params); err == nil || err.Error() != tc.want {
			t.Errorf("grid %d, bins %d: SetParameters error %v, want %q", tc.grid, tc.bins, err, tc.want)
		}
		ps := &PowerSpectrum{Grid: tc.grid, Bins: tc.bins}
		if err := ps.Execute(NewContext(1, 1, box, 1, p)); err == nil || err.Error() != tc.want {
			t.Errorf("grid %d, bins %d: Execute error %v, want %q", tc.grid, tc.bins, err, tc.want)
		}
	}
	if err := NewPowerSpectrum().SetParameters(map[string]string{"grid": "16", "bins": "1"}); err != nil {
		t.Errorf("grid 16, 1 bin rejected: %v", err)
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
			t.Errorf("missing output %s", key)
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
	if got := fmt.Sprint(algorithmNames(m)); got != "[powerspectrum halofinder somass subhalofinder haloproperties]" {
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

// SetParameters error paths and schedule handling for every algorithm,
// plus the interface identity methods the manager relies on.
func TestAllAlgorithmsParameterErrors(t *testing.T) {
	algos := map[string]Algorithm{
		"powerspectrum":  NewPowerSpectrum(),
		"halofinder":     NewHaloFinder(),
		"somass":         NewSOMass(),
		"subhalofinder":  NewSubhaloFinder(),
		"haloproperties": NewHaloProperties(),
	}
	numericKeys := map[string][]string{
		"powerspectrum":  {"grid", "bins"},
		"halofinder":     {"linking_length", "min_size", "split_threshold", "softening"},
		"somass":         {"delta", "rho_ref", "max_radius", "min_particles"},
		"subhalofinder":  {"min_halo_size", "k", "min_size", "softening"},
		"haloproperties": {"min_halo_size", "bins", "rmin_fraction"},
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
	if v := cfg.Section("s")["k"]; v != "v" {
		t.Errorf("k = %q", v)
	}
	if _, err := ParseConfigFile(dir + "/missing.ini"); err == nil {
		t.Error("expected missing-file error")
	}
}
