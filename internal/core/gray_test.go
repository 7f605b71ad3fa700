package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/supervise"
)

// grayProfile is the gray-failure mix the supervision tests run under:
// slowdowns, stalls, in-situ analysis slowdowns and submit refusals, but
// no fail-stop faults — every disruption here is one a conventional
// retry-on-failure scheduler would never notice.
func grayProfile(seed int64) fault.Profile {
	return fault.Profile{
		Seed:               seed,
		JobSlowdownProb:    0.3,
		JobStallProb:       0.3,
		InSituSlowdownProb: 0.4,
		SubmitFailProb:     0.2,
		TransitDelayProb:   0.2,
	}
}

func grayScenario(t *testing.T, seed int64) *Scenario {
	t.Helper()
	s, err := DownscaledScenario(seed)
	if err != nil {
		t.Fatal(err)
	}
	s.PostQueueWait = 0
	p := grayProfile(seed)
	s.Faults = &p
	return s
}

// Acceptance: the same seed reproduces the identical hedge/degrade
// decision log twice — the full campaign report, decision log included,
// is deterministic under gray injection.
func TestGrayCampaignDecisionLogReproducible(t *testing.T) {
	const steps = 6
	for _, seed := range []int64{3, 5, 11} {
		a, err := Campaign(grayScenario(t, seed), steps)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Campaign(grayScenario(t, seed), steps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: gray campaign not reproducible:\n  a %+v\n  b %+v", seed, a, b)
		}
		if len(a.Decisions) == 0 {
			t.Errorf("seed %d: supervised gray campaign recorded no decisions", seed)
		}
	}
}

// Acceptance: a supervised campaign under a gray profile completes every
// step — hedged re-execution recovers stalls, and hedged duplicates never
// double-count an analysis (AnalysisJobs stays exactly timesteps).
func TestGrayCampaignRecoversAllSteps(t *testing.T) {
	const steps = 6
	sawHedgeWin := false
	for _, seed := range []int64{3, 5, 7, 11, 13} {
		rep, err := Campaign(grayScenario(t, seed), steps)
		if err != nil {
			t.Fatal(err)
		}
		res := rep.Resilience
		if res.Stalls > 0 && rep.AnalysisJobs != steps {
			t.Errorf("seed %d: %d analysis jobs for %d steps under stalls %d (hedges %d wins %d lost %d)",
				seed, rep.AnalysisJobs, steps, res.Stalls, res.HedgesLaunched, res.HedgeWins, res.JobsLost)
		}
		if res.HedgeWins > res.HedgesLaunched {
			t.Errorf("seed %d: %d hedge wins from %d hedges", seed, res.HedgeWins, res.HedgesLaunched)
		}
		if res.HedgeWins > 0 {
			sawHedgeWin = true
		}
	}
	if !sawHedgeWin {
		t.Error("no seed exercised a hedge win; raise the stall rate")
	}
}

// Acceptance: a supervised gray campaign's durable products are
// bit-identical to a fault-free run's — stalls, hedges and rescues change
// the schedule, never the science.
func TestGrayCampaignProductsBitIdentical(t *testing.T) {
	const steps = 5
	for _, seed := range []int64{3, 5} {
		cleanDir, grayDir := t.TempDir(), t.TempDir()
		clean := resumeScenario(t, seed, nil)
		if _, err := ResumableCampaign(clean, steps, cleanDir, seed); err != nil {
			t.Fatal(err)
		}
		gray := grayScenario(t, seed)
		grayRep, err := ResumableCampaign(gray, steps, grayDir, seed)
		if err != nil {
			t.Fatal(err)
		}
		if grayRep.AnalysisJobs != steps {
			t.Errorf("seed %d: gray campaign analyzed %d of %d steps", seed, grayRep.AnalysisJobs, steps)
		}
		sameProducts(t, snapshotProducts(t, cleanDir), snapshotProducts(t, grayDir), "gray vs fault-free")
	}
}

// The degrade policy spills over-budget in-situ analysis to the off-line
// path: with every step slowed past the budget, all steps degrade, the
// campaign still analyzes every step, and each degrade decision is logged.
func TestDegradedStepsSpillOffline(t *testing.T) {
	const steps = 4
	s, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	s.PostQueueWait = 0
	// A profile seed whose in-situ slowdowns are all at least 3x puts every
	// step over the 500 s budget.
	for seed := int64(1); s.Faults == nil; seed++ {
		p := fault.Profile{Seed: seed, InSituSlowdownProb: 1}
		in := fault.MustNew(p)
		slow := true
		for step := 0; step <= steps; step++ {
			slow = slow && in.StepSlowdown(step) >= 3
		}
		if slow {
			s.Faults = &p
		}
	}
	s.StepBudget = 500
	rep, err := Campaign(s, steps)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resilience.DegradedSteps != steps {
		t.Errorf("degraded %d of %d steps with every step over budget", rep.Resilience.DegradedSteps, steps)
	}
	if rep.AnalysisJobs != steps {
		t.Errorf("analyzed %d of %d steps", rep.AnalysisJobs, steps)
	}
	degrades := 0
	for _, d := range rep.Decisions {
		if d.Event == "degrade" {
			degrades++
		}
	}
	if degrades != steps {
		t.Errorf("decision log records %d degrades, want %d", degrades, steps)
	}

	// The same scenario without a budget keeps everything in-situ.
	s.StepBudget = 0
	s.Supervise = nil
	rep2, err := Campaign(s, steps)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resilience.DegradedSteps != 0 {
		t.Errorf("budget-free run degraded %d steps", rep2.Resilience.DegradedSteps)
	}
	// Degrading trades sim-job time for post-job time: the degraded sim
	// finishes earlier.
	if rep.SimWallClock >= rep2.SimWallClock {
		t.Errorf("degraded sim wall %g not below in-situ sim wall %g", rep.SimWallClock, rep2.SimWallClock)
	}
}

// A supervised fail-stop campaign loses the analysis job that spends all
// its retry attempts (fault seed 55); a step budget also rescues lost
// jobs, so the same campaign under a budget no step exceeds resubmits it
// once and analyzes every step.
func TestStepBudgetRescuesLostAnalysisJob(t *testing.T) {
	base, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 8
	for _, tc := range []struct {
		budget              float64
		rescued, lost, jobs int
	}{{0, 0, 1, 7}, {1e9, 1, 1, 8}} {
		s := *base
		s.PostQueueWait = 0
		pol := supervise.DefaultPolicy()
		s.Supervise = &pol
		s.Faults = &fault.Profile{Seed: 55, JobFailureProb: 0.5}
		s.StepBudget = tc.budget
		rep, err := Campaign(&s, steps)
		if err != nil {
			t.Fatal(err)
		}
		r := rep.Resilience
		if r.RescuedSteps != tc.rescued || r.JobsLost != tc.lost || rep.AnalysisJobs != tc.jobs || r.DegradedSteps != 0 {
			t.Errorf("budget %g: rescued %d, lost %d, analysis jobs %d, degraded %d; want %d, %d, %d, 0",
				tc.budget, r.RescuedSteps, r.JobsLost, rep.AnalysisJobs, r.DegradedSteps, tc.rescued, tc.lost, tc.jobs)
		}
	}
}

// The degrade table renders the gray columns; the decision log renders
// one line per decision.
func TestFormatSupervisionOutput(t *testing.T) {
	const steps = 4
	s := grayScenario(t, 3)
	rep, err := Campaign(s, steps)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatDecisions(rep.Decisions)
	if len(rep.Decisions) > 0 && strings.Count(out, "\n") != len(rep.Decisions) {
		t.Errorf("FormatDecisions rendered %d lines for %d decisions", strings.Count(out, "\n"), len(rep.Decisions))
	}
	rows, err := ResilienceStudy(s, grayProfile(3))
	if err != nil {
		t.Fatal(err)
	}
	table := FormatResilience(rows)
	for _, col := range []string{"stall", "hedge", "wins", "degr", "rescue", "strag-nh"} {
		if !strings.Contains(table, col) {
			t.Errorf("resilience table missing column %q", col)
		}
	}
}
