package main

import (
	"crypto/sha256"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/platform"
)

// paperAnchors are the Table 3 core hours and the three Table 4 phase
// times the platform model is calibrated against, as the paper prints
// them (EXPERIMENTS.md, "Paper" column).
var paperAnchors = struct {
	inSituCoreHours, offlineCoreHours, combinedCoreHours     float64
	inSituAnalysisS, offlineRedistributeS, combinedAnalysisS float64
}{193, 356, 135, 722, 435, 361}

// anchorTolerancePct is how far the six anchors may sit from the paper on
// average before the op counts as failed. EXPERIMENTS.md's seed-1 column
// is 11 % off on average (worst: off-line 286 vs 356 core hours, 20 %);
// past 20 % the model no longer reproduces the paper's tables. The mean,
// not the worst anchor, because the worst one follows the few Poisson-
// sampled largest halos and moves 7 points from seed to seed.
const anchorTolerancePct = 20

type modelTables struct {
	e *env
	// digests holds the first output seen per seed; every later op at that
	// seed must reproduce it exactly (the planner's "same core-hours as
	// yesterday").
	digests map[int64][32]byte
}

func setupModelTables(e *env) (instance, error) {
	return &modelTables{e: e, digests: map[int64][32]byte{}}, nil
}

func (m *modelTables) inputs() int { return 2 }

// op is one planner session at seed S + i mod 2 on the paper's §4.2 test
// problem: the Table 3/4 workflow comparison, the analysis-machine choice,
// and the subhalo imbalance — which synthesizes the same population a
// second time, the repeated-synthesis shape of `workflow-sim -all`. The
// Q Continuum studies (Tables 1-2, Figures 3-4, AutoSplit) repeat the same
// sigma(R)-bound synthesis on a second scenario; they are left out so one
// op stays near 1 s and a run holds enough ops for a median.
func (m *modelTables) op(i int, root *ref) (func() (float64, error), error) {
	seed := m.e.seed + int64(mod(i, 2))
	sp := root.begin("core.DownscaledScenario")
	s, err := core.DownscaledScenario(seed)
	sp.end()
	if err != nil {
		return nil, err
	}
	reports := map[core.Kind]*core.Report{}
	sp = root.begin("core.Run")
	for _, k := range core.Kinds() {
		r, err := core.Run(s, k)
		if err != nil {
			sp.end()
			return nil, err
		}
		reports[k] = r
	}
	sp.end()
	sp = root.begin("core.CompareAnalysisMachines")
	choices, err := core.CompareAnalysisMachines(s, []platform.Machine{
		platform.Titan(), platform.Rhea(), platform.Moonlight()})
	sp.end()
	if err != nil {
		return nil, err
	}
	out := fmt.Sprintf("%+v", choices)
	for _, k := range core.Kinds() {
		out += fmt.Sprintf("\n%+v", *reports[k])
	}
	if !m.e.size.modelTrim {
		sp = root.begin("core.SubhaloImbalance")
		slow, fast, err := core.SubhaloImbalance(seed)
		sp.end()
		if err != nil {
			return nil, err
		}
		out += fmt.Sprintf("\n%v %v", slow, fast)
	}
	return func() (float64, error) { return m.check(seed, reports, out) }, nil
}

func (m *modelTables) check(seed int64, reports map[core.Kind]*core.Report, out string) (float64, error) {
	inSitu, offline, combined := reports[core.InSitu], reports[core.Offline], reports[core.CombinedSimple]
	anchors := [][2]float64{
		{inSitu.AnalysisCoreHours, paperAnchors.inSituCoreHours},
		{offline.AnalysisCoreHours, paperAnchors.offlineCoreHours},
		{combined.AnalysisCoreHours, paperAnchors.combinedCoreHours},
		{inSitu.AnalysisSeconds, paperAnchors.inSituAnalysisS},
		{offline.RedistributeSeconds, paperAnchors.offlineRedistributeS},
		{combined.AnalysisSeconds, paperAnchors.combinedAnalysisS},
	}
	dev := 0.0
	for _, a := range anchors {
		dev += 100 * math.Abs(a[0]-a[1]) / a[1] / float64(len(anchors))
	}
	if dev > anchorTolerancePct {
		return dev, fmt.Errorf("Table 3/4 anchors are %.1f%% off the paper on average (tolerance %d%%)", dev, anchorTolerancePct)
	}
	// The paper's headline ordering: off-line > in-situ > combined.
	if !(offline.AnalysisCoreHours > inSitu.AnalysisCoreHours && inSitu.AnalysisCoreHours > combined.AnalysisCoreHours) {
		return dev, fmt.Errorf("Table 3 ordering lost: off-line %.0f, in-situ %.0f, combined %.0f core hours",
			offline.AnalysisCoreHours, inSitu.AnalysisCoreHours, combined.AnalysisCoreHours)
	}
	digest := sha256.Sum256([]byte(out))
	if first, seen := m.digests[seed]; seen && first != digest {
		return 100, fmt.Errorf("seed %d: study output differs from the first session at this seed", seed)
	}
	m.digests[seed] = digest
	return dev, nil
}
