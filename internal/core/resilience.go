package core

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/sched"
	"repro/internal/supervise"
)

// Resilience aggregates the failure/recovery accounting of one workflow
// run. All fields are zero when the scenario has no fault profile, so the
// failure path is strictly additive to the paper's ideal-world reports.
type Resilience struct {
	// JobAttempts counts every job attempt started (retries included);
	// JobFailures those that died mid-run; Resubmits the failed attempts
	// resubmitted under the retry policy; JobsLost the jobs whose retries
	// were exhausted.
	JobAttempts, JobFailures, Resubmits, JobsLost int
	// WriteFailures and TruncatedWrites count storage faults;
	// WritesRedriven counts lost or truncated files recovered by
	// re-driving the write.
	WriteFailures, TruncatedWrites, WritesRedriven int
	// MissedPolls counts listener polls lost to outage windows.
	MissedPolls int
	// TimeLostSeconds is execution time discarded by failed attempts;
	// LostCoreHours is the facility charge for that discarded time.
	TimeLostSeconds float64
	LostCoreHours   float64

	// Gray-failure supervision accounting (all zero when no gray faults
	// are injected and no supervisor is attached).
	//
	// Stalls counts attempts that hung mid-run without dying;
	// HedgesLaunched the backup attempts raced against suspects; HedgeWins
	// the races the backup won; DegradedSteps the timesteps whose center
	// work spilled to the off-line path under the step budget;
	// RescuedSteps the lost analysis jobs resubmitted by the degrade
	// policy.
	Stalls, HedgesLaunched, HedgeWins int
	DegradedSteps, RescuedSteps       int
	// StragglerNodeHours is node time reclaimed from cancelled straggler
	// attempts (the cost of running primaries and backups side by side).
	StragglerNodeHours float64
	// SubmitFaults counts listener job submissions refused by the gray
	// scheduler; BreakerOpens the listener circuit-breaker trips that
	// followed; BreakerSkips the polls skipped while the breaker was open.
	SubmitFaults, BreakerOpens, BreakerSkips int
}

// addCluster folds one cluster's failure counters into the summary.
func (res *Resilience) addCluster(c *sched.Cluster) {
	res.JobAttempts += c.Attempts
	res.JobFailures += c.FailedAttempts
	res.Resubmits += c.Resubmits
	res.JobsLost += c.LostJobs
	res.TimeLostSeconds += c.TimeLost
	res.LostCoreHours += c.LostNodeSeconds / 3600 * c.Machine.ChargeFactor
	res.Stalls += c.StalledAttempts
	res.HedgesLaunched += c.HedgesLaunched
	res.HedgeWins += c.HedgeWins
	res.StragglerNodeHours += c.StragglerNodeSeconds / 3600
}

// addFS folds one storage tier's fault counters into the summary.
func (res *Resilience) addFS(s *fs.System) {
	res.WriteFailures += s.WriteFailures
	res.TruncatedWrites += s.TruncatedWrites
}

// addListener folds the listener's outage and breaker counters into the
// summary.
func (res *Resilience) addListener(l *sched.Listener) {
	res.MissedPolls += l.MissedPolls
	res.SubmitFaults += l.SubmitFaults
	res.BreakerSkips += l.BreakerSkips
	if l.Breaker != nil {
		res.BreakerOpens += l.Breaker.Opens
	}
}

// injector builds the scenario's fault injector — nil when no profile is
// set or the profile injects nothing, which keeps the failure-free runs on
// the exact event sequence of the original model.
func (s *Scenario) injector() *fault.Injector {
	if s.Faults == nil || !s.Faults.Enabled() {
		return nil
	}
	in, err := fault.New(*s.Faults)
	if err != nil {
		// Scenario.Validate rejects malformed profiles before any run
		// reaches this point; treat the impossible case as "no faults".
		return nil
	}
	return in
}

// ResilienceRow compares one workflow kind with and without faults.
type ResilienceRow struct {
	Workflow Kind
	// Baseline ran the zero-fault scenario; Faulted ran it under the
	// profile.
	Baseline, Faulted *Report
}

// WallInflation is the faulted wall clock relative to the baseline (1.0 =
// no degradation).
func (r *ResilienceRow) WallInflation() float64 {
	if r.Baseline.WallClock == 0 {
		return 1
	}
	return r.Faulted.WallClock / r.Baseline.WallClock
}

// ResilienceStudy runs every workflow kind twice — once failure-free, once
// under the fault profile — and reports how gracefully each variant
// degrades: the "which workflow survives real facility conditions" question
// the paper's idealized Tables 3/4 cannot answer.
func ResilienceStudy(s *Scenario, p fault.Profile) ([]ResilienceRow, error) {
	var rows []ResilienceRow
	for _, k := range Kinds() {
		base := *s
		base.Faults = nil
		br, err := Run(&base, k)
		if err != nil {
			return nil, err
		}
		faulted := *s
		faulted.Faults = &p
		fr, err := Run(&faulted, k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ResilienceRow{Workflow: k, Baseline: br, Faulted: fr})
	}
	return rows, nil
}

// FormatResilience renders the study as the side-by-side degradation table
// printed by workflow-sim -resilience. The output is deterministic for a
// fixed scenario seed and fault profile.
func FormatResilience(rows []ResilienceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-30s %9s %9s %8s | %8s %7s %5s %6s %7s %7s | %5s %5s %4s %4s %7s %8s | %9s %8s\n",
		"workflow", "wall[s]", "+faults", "inflate",
		"attempts", "jobfail", "lost", "wrfail", "wrtrunc", "redrive",
		"stall", "hedge", "wins", "degr", "rescue", "strag-nh",
		"t-lost[s]", "+corehrs")
	for _, row := range rows {
		res := row.Faulted.Resilience
		fmt.Fprintf(&b, "  %-30s %9.0f %9.0f %7.2fx | %8d %7d %5d %6d %7d %7d | %5d %5d %4d %4d %7d %8.2f | %9.0f %8.1f\n",
			row.Workflow, row.Baseline.WallClock, row.Faulted.WallClock, row.WallInflation(),
			res.JobAttempts, res.JobFailures, res.JobsLost,
			res.WriteFailures, res.TruncatedWrites, res.WritesRedriven,
			res.Stalls, res.HedgesLaunched, res.HedgeWins, res.DegradedSteps, res.RescuedSteps, res.StragglerNodeHours,
			res.TimeLostSeconds, res.LostCoreHours)
	}
	return b.String()
}

// FormatDecisions renders a supervision decision log as the per-event
// trace printed by workflow-sim -gray -decisions. The log is empty for
// unsupervised runs and identical across reruns of the same seed.
func FormatDecisions(ds []supervise.Decision) string {
	if len(ds) == 0 {
		return "  (no supervision decisions)\n"
	}
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "  %s\n", d.String())
	}
	return b.String()
}
