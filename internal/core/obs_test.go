package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
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
// (Table 3's column). This pins the cost report to the paper numbers.
func TestPhaseSpanCostMatchesReport(t *testing.T) {
	for _, k := range Kinds() {
		s, err := DownscaledScenario(5)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New(string(k), nil)
		s.Obs = o
		r, err := Run(s, k)
		if err != nil {
			t.Fatal(err)
		}
		rep := obs.Cost(o, obs.TitanChargePolicy())
		var simCH, anaCH float64
		for _, l := range rep.Lines {
			if l.Category == "sim" {
				simCH += l.CoreHours
			} else {
				anaCH += l.CoreHours
			}
		}
		rel := func(got, want float64) float64 {
			return math.Abs(got-want) / (1 + math.Abs(want))
		}
		if rel(simCH, r.SimCoreHours) > 1e-9 {
			t.Errorf("%s: sim span core-hours %.6f, report %.6f", k, simCH, r.SimCoreHours)
		}
		if rel(anaCH, r.AnalysisCoreHours) > 1e-9 {
			t.Errorf("%s: analysis span core-hours %.6f, report %.6f", k, anaCH, r.AnalysisCoreHours)
		}
	}
}
