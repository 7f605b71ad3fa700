package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/supervise"
)

// campaignArtifacts runs a fresh campaign under an observer and returns
// every serialized observability artifact concatenated: Chrome trace
// JSON, span tree, metrics registry, and the cost table. Byte equality
// of this blob across runs is the determinism contract CI gates on.
func campaignArtifacts(t *testing.T, seed int64, steps int, gray bool) []byte {
	t.Helper()
	s, err := DownscaledScenario(seed)
	if err != nil {
		t.Fatal(err)
	}
	s.PostQueueWait = 0
	if gray {
		p := grayProfile(seed)
		s.Faults = &p
		pol := supervise.DefaultPolicy()
		s.Supervise = &pol
	}
	o := obs.New("campaign", nil)
	s.Obs = o
	if _, err := Campaign(s, steps); err != nil {
		t.Fatal(err)
	}
	return observedArtifacts(t, o)
}

// Two identical campaigns must serialize to byte-identical artifacts —
// the observability layer's core guarantee, both on the quiet path and
// under gray weather (hedges, cancellations, degradation decisions).
func TestCampaignObservabilityDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		gray bool
	}{
		{"quiet", false},
		{"gray", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := campaignArtifacts(t, 7, 12, tc.gray)
			b := campaignArtifacts(t, 7, 12, tc.gray)
			if len(a) == 0 {
				t.Fatal("no artifact bytes produced")
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("artifacts differ between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
			}
			for _, want := range []string{`"traceEvents"`, "span tree: campaign", "counter sched.attempts", "cost report: campaign"} {
				if !strings.Contains(string(a), want) {
					t.Errorf("artifact blob missing %q", want)
				}
			}
		})
	}
}

// The campaign trace must contain the full span hierarchy: one campaign
// root, one step span per snapshot, and at least one job span per
// analysis submission, with job spans charged to the machine.
func TestCampaignSpanHierarchy(t *testing.T) {
	const steps = 8
	s, err := DownscaledScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	s.PostQueueWait = 0
	o := obs.New("campaign", nil)
	s.Obs = o
	rep, err := Campaign(s, steps)
	if err != nil {
		t.Fatal(err)
	}
	var campaigns, stepSpans, jobs, charged int
	for _, sp := range o.Spans() {
		switch sp.Cat {
		case "campaign":
			campaigns++
		case "step":
			stepSpans++
		case "job":
			jobs++
			if sp.Nodes > 0 && sp.Machine != "" {
				charged++
			}
		}
	}
	if campaigns != 1 {
		t.Errorf("campaign spans = %d, want 1", campaigns)
	}
	if stepSpans != steps {
		t.Errorf("step spans = %d, want %d", stepSpans, steps)
	}
	if jobs < rep.AnalysisJobs {
		t.Errorf("job spans = %d, want >= %d analysis jobs", jobs, rep.AnalysisJobs)
	}
	if charged != jobs {
		t.Errorf("only %d of %d job spans carry a machine charge", charged, jobs)
	}
}

// The retroactive phase spans every workflow runner emits must price out
// to exactly the report's own accounting: the sim category reproduces
// SimCoreHours and everything else charged reproduces AnalysisCoreHours
// (Table 3's column). The property holds for every workflow kind, fault
// family, seed and post machine (each paper machine's charge factor).
func TestPhaseSpanCostMatchesReport(t *testing.T) {
	rel := func(got, want float64) float64 {
		return math.Abs(got-want) / (1 + math.Abs(want))
	}
	for _, seed := range []int64{1, 2} {
		base, err := DownscaledScenario(seed)
		if err != nil {
			t.Fatal(err)
		}
		profiles := []struct {
			name string
			p    *fault.Profile
		}{{"clean", nil}, {"failstop", goldenFailStop(seed + 40)}, {"gray", goldenGray(seed + 40)}}
		for _, post := range []platform.Machine{platform.Titan(), platform.Moonlight(), platform.Rhea()} {
			for _, pr := range profiles {
				for _, k := range Kinds() {
					s := *base
					s.PostMachine, s.Faults = post, pr.p
					o := obs.New(string(k), nil)
					s.Obs = o
					r, err := Run(&s, k)
					if err != nil {
						t.Fatal(err)
					}
					var simCH, anaCH float64
					for _, l := range obs.Cost(o).Lines {
						if l.Category == "sim" {
							simCH += l.CoreHours
						} else {
							anaCH += l.CoreHours
						}
					}
					if rel(simCH, r.SimCoreHours) > 1e-9 || rel(anaCH, r.AnalysisCoreHours) > 1e-9 {
						t.Errorf("seed %d, post %s, %s, %s: span core-hours sim %.6f analysis %.6f, report %.6f %.6f",
							seed, post.Name, pr.name, k, simCH, anaCH, r.SimCoreHours, r.AnalysisCoreHours)
					}
				}
			}
		}
	}
}

// The cost report charges each span at the factor of the machine that
// held it, the same factor the report charges: a machine whose factor is
// not the paper's (here 20 core-hours per node-hour on Titan's nodes)
// must price identically in both.
func TestCostChargesTheMachinesOwnFactor(t *testing.T) {
	base, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds() {
		s := *base
		s.Machine.ChargeFactor, s.PostMachine.ChargeFactor = 20, 20
		s.Obs = obs.New(string(k), nil)
		r, err := Run(&s, k)
		if err != nil {
			t.Fatal(err)
		}
		analysis := 0.0
		for _, l := range obs.Cost(s.Obs).Lines {
			if l.Category != "sim" {
				analysis += l.CoreHours
			}
		}
		if math.Abs(analysis-r.AnalysisCoreHours) > 1e-9*(1+r.AnalysisCoreHours) {
			t.Errorf("%s: cost report prices analysis at %.2f core-hours, the report at %.2f", k, analysis, r.AnalysisCoreHours)
		}
	}
}
