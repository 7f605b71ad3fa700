package core

import (
	"math"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/platform"
)

func TestSynthesizePopulationValidation(t *testing.T) {
	p := cosmo.Default()
	bad := []SynthesisOptions{
		{BoxMpch: 0, NP: 64, MinSize: 40, SampleAbove: 1000},
		{BoxMpch: 100, NP: 0, MinSize: 40, SampleAbove: 1000},
		{BoxMpch: 100, NP: 64, MinSize: 0, SampleAbove: 1000},
		{BoxMpch: 100, NP: 64, MinSize: 100, SampleAbove: 50},
	}
	for i, o := range bad {
		if _, err := SynthesizePopulation(p, o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := SynthesizePopulation(cosmo.Params{}, SynthesisOptions{BoxMpch: 100, NP: 64, MinSize: 40, SampleAbove: 1000}); err == nil {
		t.Error("expected cosmology error")
	}
}

// A MaxSize at or below MinSize is no mass range: it used to reach
// ExpectedHaloCounts as a negative bin count (makeslice panic) or a NaN
// bin ratio. It is an error; the first MaxSize above MinSize is not.
func TestSynthesizePopulationMaxSize(t *testing.T) {
	for _, c := range []struct {
		maxSize int
		ok      bool
	}{{10, false}, {39, false}, {40, false}, {41, true}, {0, true}} {
		pop, err := SynthesizePopulation(cosmo.Default(), SynthesisOptions{
			BoxMpch: 100, NP: 64, MinSize: 40, SampleAbove: 300, MaxSize: c.maxSize})
		if (err == nil) != c.ok {
			t.Errorf("MaxSize %d: err = %v, want ok = %v", c.maxSize, err, c.ok)
		}
		if c.ok && (pop == nil || len(pop.Bins) == 0) {
			t.Errorf("MaxSize %d: no population", c.maxSize)
		}
	}
}

// The Q Continuum-scale population must reproduce the paper's headline
// shape: ~1e8 halos, ~1e5 above 300k particles, largest in the
// tens of millions.
func TestQContinuumPopulationShape(t *testing.T) {
	s, err := QContinuumScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	pop := s.Population
	total := pop.TotalHalos()
	if total < 5e7 || total > 5e9 {
		t.Errorf("total halos = %.3g, paper has 1.7e8", total)
	}
	off := pop.CountAbove(300000)
	if off < 2e4 || off > 4e5 {
		t.Errorf("off-loaded = %.0f, paper has 84,719", off)
	}
	largest := pop.LargestSize()
	if largest < 8e6 || largest > 8e7 {
		t.Errorf("largest = %d, paper has ~25M", largest)
	}
	// Off-loaded halos are a vanishing fraction of the count...
	if off/total > 1e-2 {
		t.Errorf("off-load fraction = %.3g, should be tiny", off/total)
	}
	// ...but dominate the center-finding work.
	if pop.PairSum(300000, 0) < 3*pop.PairSum(0, 300000) {
		t.Error("large halos should dominate the pair work")
	}
}

func TestPopulationAccountingConsistency(t *testing.T) {
	s, err := DownscaledScenario(2)
	if err != nil {
		t.Fatal(err)
	}
	pop := s.Population
	// CountAbove(0) equals TotalHalos.
	if math.Abs(pop.CountAbove(0)-pop.TotalHalos()) > 1e-6*pop.TotalHalos() {
		t.Error("CountAbove(0) != TotalHalos")
	}
	// PairSum partitions at any threshold.
	all := pop.PairSum(0, 0)
	small := pop.PairSum(0, 300000)
	big := pop.PairSum(300000, 0)
	if math.Abs(all-(small+big)) > 1e-6*all {
		t.Errorf("pair sums don't partition: %g != %g + %g", all, small, big)
	}
	// ParticlesAbove decreases with threshold.
	if pop.ParticlesAbove(1000) < pop.ParticlesAbove(100000) {
		t.Error("ParticlesAbove not monotone")
	}
}

func TestNodeAssignmentConservesWork(t *testing.T) {
	s, err := DownscaledScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	pop := s.Population
	nodes := pop.NodeAssignment(32, 0, 0, 5)
	if len(nodes) != 32 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	sum := 0.0
	for _, v := range nodes {
		sum += v
	}
	want := pop.PairSum(0, 0)
	if math.Abs(sum-want) > 1e-6*want {
		t.Errorf("node assignment total %g != pair sum %g", sum, want)
	}
	if pop.NodeAssignment(0, 0, 0, 5) != nil {
		t.Error("zero nodes should return nil")
	}
}

func TestComputeDataLevelsTable1(t *testing.T) {
	small, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := small.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: 1024³ -> ~40 GB Level 1, ~5 GB Level 2, Level 3 in the tens
	// of MB.
	if lv.Level1Bytes < 35e9 || lv.Level1Bytes > 45e9 {
		t.Errorf("L1 = %.3g, want ~40 GB", lv.Level1Bytes)
	}
	if lv.Level2Bytes < 1e9 || lv.Level2Bytes > 10e9 {
		t.Errorf("L2 = %.3g, want ~5 GB", lv.Level2Bytes)
	}
	if lv.Level3Bytes < 5e6 || lv.Level3Bytes > 500e6 {
		t.Errorf("L3 = %.3g, want tens of MB", lv.Level3Bytes)
	}
	if lv.Level2Fraction <= 0 || lv.Level2Fraction > 0.5 {
		t.Errorf("L2 fraction = %v", lv.Level2Fraction)
	}
	if _, err := ComputeDataLevels(0, small.Population, 300000); err == nil {
		t.Error("expected error for zero particles")
	}
}

func TestScenarioValidation(t *testing.T) {
	s, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	broken := *s
	broken.Population = nil
	if err := broken.Validate(); err == nil {
		t.Error("expected population error")
	}
	broken2 := *s
	broken2.Timesteps = 0
	if err := broken2.Validate(); err == nil {
		t.Error("expected timesteps error")
	}
}

// Table 3's central result: off-line > in-situ > combined in core hours,
// with combined saving ~30% over in-situ.
func TestWorkflowCoreHourOrdering(t *testing.T) {
	s, err := DownscaledScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	reports := map[Kind]*Report{}
	for _, k := range Kinds() {
		r, err := Run(s, k)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		reports[k] = r
	}
	inSitu := reports[InSitu].AnalysisCoreHours
	offline := reports[Offline].AnalysisCoreHours
	combined := reports[CombinedSimple].AnalysisCoreHours
	if !(offline > inSitu && inSitu > combined) {
		t.Errorf("ordering broken: offline=%v insitu=%v combined=%v", offline, inSitu, combined)
	}
	// Combined saves roughly 30% over in-situ (paper: 135 vs 193).
	saving := 1 - combined/inSitu
	if saving < 0.10 || saving > 0.60 {
		t.Errorf("combined saving = %.0f%%, paper shows ~30%%", saving*100)
	}
	// Off-line pays Level 1 I/O and redistribution; in-situ pays neither.
	if reports[Offline].RedistributeSeconds <= 0 || reports[InSitu].RedistributeSeconds != 0 {
		t.Error("redistribution accounting wrong")
	}
	// Combined redistribution is Level 2: much smaller than off-line's.
	if reports[CombinedSimple].RedistributeSeconds*2 > reports[Offline].RedistributeSeconds {
		t.Error("Level 2 redistribution should be under half of Level 1's")
	}
	// Co-scheduled core hours equal the simple variant ("would in theory be
	// equal ... if run on equivalent hardware", Table 3).
	if math.Abs(reports[CombinedCoScheduled].AnalysisCoreHours-combined) > 0.01*combined {
		t.Errorf("co-scheduled charge %v != simple %v", reports[CombinedCoScheduled].AnalysisCoreHours, combined)
	}
	// In-transit drops the Level 2 I/O but keeps the redistribution.
	it := reports[CombinedInTransit]
	if it.ReadSeconds != 0 || it.RedistributeSeconds <= 0 {
		t.Errorf("in-transit I/O accounting: read=%v redist=%v", it.ReadSeconds, it.RedistributeSeconds)
	}
}

// Table 4 magnitudes for the downscaled run.
func TestWorkflowTable4Magnitudes(t *testing.T) {
	s, err := DownscaledScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	inSitu, err := Run(s, InSitu)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: in-situ analysis 722 s (2x band for population randomness).
	if inSitu.AnalysisSeconds < 300 || inSitu.AnalysisSeconds > 1500 {
		t.Errorf("in-situ analysis = %v s, paper says 722", inSitu.AnalysisSeconds)
	}
	offline, err := Run(s, Offline)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: redistribute 435 s, read/write ~5 s.
	if offline.RedistributeSeconds < 200 || offline.RedistributeSeconds > 700 {
		t.Errorf("off-line redistribute = %v s, paper says 435", offline.RedistributeSeconds)
	}
	if offline.SimWriteSeconds < 2 || offline.SimWriteSeconds > 12 {
		t.Errorf("L1 write = %v s, paper says 5", offline.SimWriteSeconds)
	}
	combined, err := Run(s, CombinedSimple)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: combined in-situ phase 361 s; post analysis 1075 s on 4 nodes.
	if combined.AnalysisSeconds < 150 || combined.AnalysisSeconds > 700 {
		t.Errorf("combined in-situ analysis = %v s, paper says 361", combined.AnalysisSeconds)
	}
	if combined.PostAnalysisSeconds < 400 || combined.PostAnalysisSeconds > 2500 {
		t.Errorf("combined post analysis = %v s, paper says 1075", combined.PostAnalysisSeconds)
	}
	if combined.PostNodes != 4 {
		t.Errorf("post nodes = %d", combined.PostNodes)
	}
	// The off-line wall clock includes the multi-day queue wait.
	if offline.WallClock < s.OfflineQueueWait {
		t.Errorf("off-line wall clock %v ignores queueing", offline.WallClock)
	}
}

// Multi-timestep co-scheduling: analysis overlaps the running simulation,
// so the scientist's wall-clock wait beats the simple variant.
func TestCoSchedulingOverlapsAnalysis(t *testing.T) {
	s, err := DownscaledScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	s.Timesteps = 5
	s.PostQueueWait = 0
	simple, err := Run(s, CombinedSimple)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Run(s, CombinedCoScheduled)
	if err != nil {
		t.Fatal(err)
	}
	if co.WallClock >= simple.WallClock {
		t.Errorf("co-scheduled wall %v should beat simple %v", co.WallClock, simple.WallClock)
	}
	if len(co.AnalysisJobStarts) != 5 {
		t.Fatalf("co-scheduled submitted %d analysis jobs, want 5", len(co.AnalysisJobStarts))
	}
	// All but the last analysis job start before the simulation ends.
	simEnd := simple.SimJobTotal()
	overlapped := 0
	for _, start := range co.AnalysisJobStarts {
		if start < simEnd {
			overlapped++
		}
	}
	if overlapped < 3 {
		t.Errorf("only %d of 5 analysis jobs overlapped the simulation", overlapped)
	}
}

func TestRunRejectsUnknownKind(t *testing.T) {
	s, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, Kind("bogus")); err == nil {
		t.Error("expected error")
	}
}

// The automated split rule (§4.1).
func TestAutoSplit(t *testing.T) {
	s, err := QContinuumScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := AutoSplit(s)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OffloadNeeded {
		t.Fatal("Q Continuum must need off-loading")
	}
	// The paper chose 300k manually and notes the automated rule would
	// allow anything analyzable within t_io; with t_io ~20 minutes and the
	// quadratic center cost, m_max_io lands in the millions of particles —
	// above the manual threshold, below the largest halo.
	if d.Threshold < 300000 {
		t.Errorf("auto threshold = %d, should be no stricter than the manual 300,000", d.Threshold)
	}
	if d.Threshold >= d.LargestSimSize {
		t.Errorf("auto threshold %d should leave the largest halo (%d) off-loaded", d.Threshold, d.LargestSimSize)
	}
	if d.LargestSimSize <= d.MaxInSituSize {
		t.Error("inconsistent offload decision")
	}
	if d.CoScheduleRanks < 1 {
		t.Errorf("ranks = %d", d.CoScheduleRanks)
	}
	// T/t_max sizing: makespan-balanced, so ranks <= count of off-loaded
	// halos.
	if float64(d.CoScheduleRanks) > s.Population.CountAbove(d.Threshold) {
		t.Errorf("ranks %d exceed off-loaded halos", d.CoScheduleRanks)
	}
}

// A small box whose largest halo is analyzable within t_io needs no split.
func TestAutoSplitNoOffloadForSmallProblem(t *testing.T) {
	s, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	// Make I/O artificially expensive so everything fits in-situ.
	s.Costs.CenterPairSeconds = 1e-16
	d, err := AutoSplit(s)
	if err != nil {
		t.Fatal(err)
	}
	if d.OffloadNeeded {
		t.Error("cheap centers should not need off-loading")
	}
	if d.Threshold != 0 {
		t.Errorf("threshold = %d", d.Threshold)
	}
}

// §4.1 headline numbers.
func TestQContinuumStudyShape(t *testing.T) {
	r, err := QContinuumStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	// Moonlight node hours within 2x of 1770.
	if r.MoonlightNodeHours < 800 || r.MoonlightNodeHours > 3600 {
		t.Errorf("Moonlight node hours = %v, paper says 1770", r.MoonlightNodeHours)
	}
	// Titan equivalence factor.
	if math.Abs(r.TitanEquivalentNodeHours/r.MoonlightNodeHours-0.55) > 1e-9 {
		t.Error("Titan equivalence factor wrong")
	}
	// Combined beats monolithic by a large factor (paper: 6.5).
	if r.SavingFactor < 3 || r.SavingFactor > 25 {
		t.Errorf("saving factor = %v, paper says 6.5", r.SavingFactor)
	}
	if r.CombinedCoreHours >= r.MonolithicCoreHours {
		t.Error("combined must beat monolithic")
	}
	// Longest job > shortest job; longest block <= longest job.
	if r.LongestJobHours <= r.ShortestJobHours {
		t.Error("job spread missing")
	}
	if r.LongestBlockHours > r.LongestJobHours {
		t.Error("a block cannot exceed its job")
	}
	// I/O overhead ~0.16M core hours (2x band).
	if r.IOOverheadCoreHours < 8e4 || r.IOOverheadCoreHours > 4e5 {
		t.Errorf("I/O overhead = %v, paper says ~0.16M", r.IOOverheadCoreHours)
	}
	// In-situ small-halo centers take on the order of a minute.
	if r.SmallCenterSeconds < 5 || r.SmallCenterSeconds > 300 {
		t.Errorf("small centers = %v s, paper says ~1 minute", r.SmallCenterSeconds)
	}
	if len(r.String()) == 0 {
		t.Error("empty report string")
	}
}

// Table 2 shape: Find balanced and growing toward z=0; Center imbalance
// exploding toward z=0.
func TestTable2Shape(t *testing.T) {
	rows, err := Table2(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// Find is well balanced: max/min < 1.5.
		if r.FindMax/r.FindMin > 1.5 {
			t.Errorf("slice %d: find imbalance %v", r.Slice, r.FindMax/r.FindMin)
		}
		// Center is badly balanced everywhere, worse later.
		if r.CenterMax/r.CenterMin < 2 {
			t.Errorf("slice %d: center imbalance only %v", r.Slice, r.CenterMax/r.CenterMin)
		}
		if i > 0 {
			if r.FindMax <= rows[i-1].FindMax {
				t.Errorf("find time should grow with structure: slice %d", r.Slice)
			}
			if r.CenterMax <= rows[i-1].CenterMax {
				t.Errorf("center max should grow with structure: slice %d", r.Slice)
			}
		}
	}
	last := rows[3]
	// z=0 center imbalance is extreme (paper: 21250 / 2.4 ~ 1e4).
	if last.CenterMax/last.CenterMin < 50 {
		t.Errorf("z=0 center imbalance = %v, paper shows ~1e4", last.CenterMax/last.CenterMin)
	}
	// Find max at z=0 within 2x of the paper's 2143.
	if last.FindMax < 1000 || last.FindMax > 4500 {
		t.Errorf("z=0 find max = %v, paper says 2143", last.FindMax)
	}
	// Center max at z=0 within ~2x of the paper's 21250.
	if last.CenterMax < 8000 || last.CenterMax > 45000 {
		t.Errorf("z=0 center max = %v, paper says 21250", last.CenterMax)
	}
}

// Figure 3 shape: steep decline, split at 300k, off-loaded counts tiny.
func TestFigure3Shape(t *testing.T) {
	bins, total, off, err := Figure3(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) < 10 {
		t.Fatalf("bins = %d", len(bins))
	}
	// Counts fall steeply: first bin dominates the last by orders of
	// magnitude.
	first, last := bins[0], bins[len(bins)-1]
	if first.Count < 1e5*last.Count {
		t.Errorf("mass function not steep: first %g last %g", first.Count, last.Count)
	}
	// Offloaded flag flips exactly at the threshold.
	for _, b := range bins {
		if (b.Particles > 300000) != b.Offloaded {
			t.Errorf("bin at %v particles misflagged", b.Particles)
		}
	}
	if off >= total/100 {
		t.Errorf("off-loaded %v of %v: fraction too high", off, total)
	}
	// Mass column consistent with particle column.
	if bins[0].MassMsun <= bins[0].Particles {
		t.Error("mass should exceed particle count (1e8 Msun particles)")
	}
}

// Figure 4 shape: strongly right-skewed node-time histogram with a lone
// extreme node.
func TestFigure4Shape(t *testing.T) {
	h, err := Figure4(1)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 16384 {
		t.Errorf("nodes binned = %d", h.Total())
	}
	// First bin holds the overwhelming majority of nodes.
	if float64(h.Counts[0]) < 0.5*16384 {
		t.Errorf("first bin = %d of 16384", h.Counts[0])
	}
	// The last occupied bin holds very few nodes.
	lastIdx := -1
	for i, c := range h.Counts {
		if c > 0 {
			lastIdx = i
		}
	}
	if lastIdx < 5 {
		t.Errorf("distribution not long-tailed: last bin %d", lastIdx)
	}
	if h.Counts[lastIdx] > 10 {
		t.Errorf("extreme bin holds %d nodes, want a handful", h.Counts[lastIdx])
	}
	// Paper's axis spans ~21 bins of 1000 s; ours lands in the same decade.
	if lastIdx < 8 || lastIdx > 60 {
		t.Errorf("histogram spans %d bins, paper spans ~21", lastIdx+1)
	}
}

func TestTable1Output(t *testing.T) {
	rows, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// 8192³ Level 1 ~20 TB; Level 2 a factor of several smaller.
	big := rows[1]
	if big.Level1Bytes < 15e12 || big.Level1Bytes > 25e12 {
		t.Errorf("8192³ L1 = %.3g, paper says ~20 TB", big.Level1Bytes)
	}
	if big.Level2Bytes >= big.Level1Bytes/3 {
		t.Errorf("L2 %.3g not well below L1 %.3g", big.Level2Bytes, big.Level1Bytes)
	}
	if big.Level3Bytes >= big.Level2Bytes/10 {
		t.Errorf("L3 %.3g not well below L2 %.3g", big.Level3Bytes, big.Level2Bytes)
	}
}

// §4.2 subhalo imbalance.
func TestSubhaloImbalanceShape(t *testing.T) {
	slow, fast, err := SubhaloImbalance(4)
	if err != nil {
		t.Fatal(err)
	}
	ratio := slow / fast
	if ratio < 3 || ratio > 15 {
		t.Errorf("imbalance = %v, paper says >5 (8172/1457)", ratio)
	}
	// Magnitudes within ~2x of the paper's seconds.
	if slow < 3000 || slow > 17000 {
		t.Errorf("slowest = %v, paper says 8172", slow)
	}
	if fast < 500 || fast > 3500 {
		t.Errorf("fastest = %v, paper says 1457", fast)
	}
}

// A 100-snapshot co-scheduled campaign: nearly every analysis job overlaps
// the simulation, the trailing work after sim end is at most a couple of
// job lengths, and the co-scheduled finish beats the simple workflow.
func TestCampaignOverlapAndPileUp(t *testing.T) {
	s, err := DownscaledScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	s.PostQueueWait = 0
	rep, err := Campaign(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AnalysisJobs != 100 {
		t.Fatalf("analysis jobs = %d", rep.AnalysisJobs)
	}
	if rep.OverlapFraction < 0.9 {
		t.Errorf("overlap = %v, expected nearly all jobs co-scheduled", rep.OverlapFraction)
	}
	if rep.TotalWallClock >= rep.SimpleWallClock {
		t.Errorf("co-scheduled %v should beat simple %v", rep.TotalWallClock, rep.SimpleWallClock)
	}
	if rep.MaxPileUp < 1 {
		t.Errorf("pile-up = %d", rep.MaxPileUp)
	}
	// Trailing work after the sim is bounded by the pile-up drain.
	if rep.TrailingSeconds > rep.SimpleWallClock-rep.SimWallClock {
		t.Errorf("trailing %v exceeds serial analysis span", rep.TrailingSeconds)
	}
}

func TestCampaignValidation(t *testing.T) {
	s, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Campaign(s, 0); err == nil {
		t.Error("expected timesteps error")
	}
}

// When analysis is slower than the simulation cadence, jobs pile up — the
// §3.2 "pile-up in the analysis stack" regime.
func TestCampaignPileUpWhenAnalysisSlow(t *testing.T) {
	s, err := DownscaledScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	s.PostQueueWait = 0
	s.StepInterval = 10 // sim emits much faster than the post jobs drain
	// Constrain the post machine so only one job runs at a time.
	s.PostMachine.Nodes = s.PostNodes
	rep, err := Campaign(s, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxPileUp < 5 {
		t.Errorf("pile-up = %d, expected a deep queue", rep.MaxPileUp)
	}
	if rep.AnalysisJobs != 20 {
		t.Errorf("all jobs must still complete: %d", rep.AnalysisJobs)
	}
}

// §4.2's machine-choice trade-off: Rhea (no GPUs) is far slower for the
// center analysis than GPU machines; Titan is fastest but its queue policy
// penalizes the small analysis job.
func TestCompareAnalysisMachines(t *testing.T) {
	s, err := DownscaledScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	choices, err := CompareAnalysisMachines(s, []platform.Machine{
		platform.Titan(), platform.Rhea(), platform.Moonlight(),
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]MachineChoice{}
	for _, c := range choices {
		byName[c.Machine.Name] = c
	}
	titan, rhea, moon := byName["Titan"], byName["Rhea"], byName["Moonlight"]
	// "the lack of GPUs slowed down the center finding considerably":
	// Rhea is ~50x slower than Titan.
	if rhea.PostAnalysisSeconds < 20*titan.PostAnalysisSeconds {
		t.Errorf("Rhea %v not ≫ Titan %v", rhea.PostAnalysisSeconds, titan.PostAnalysisSeconds)
	}
	// Moonlight is slower than Titan by ~1/0.55.
	ratio := moon.PostAnalysisSeconds / titan.PostAnalysisSeconds
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("Moonlight/Titan = %v, want ~1.8", ratio)
	}
	// Titan's queue penalizes the small analysis job; the others admit it.
	if !titan.SubjectToSmallJobPolicy {
		t.Error("Titan small-job policy should apply to a 4-node job")
	}
	if rhea.SubjectToSmallJobPolicy || moon.SubjectToSmallJobPolicy {
		t.Error("analysis clusters should have no small-job cap")
	}
	if titan.QueueWaitSeconds <= rhea.QueueWaitSeconds {
		t.Error("Titan's analysis-job wait should exceed Rhea's")
	}
}
