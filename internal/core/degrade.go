package core

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/supervise"
)

// supervision builds the run's supervisor when Supervise is set or the
// fault profile injects gray failures (a stalled job would otherwise hang
// the campaign forever), and nil otherwise — keeping failure-free and
// fail-stop-only runs on their exact original event sequences.
func (s *Scenario) supervision(sim *des.Sim) *supervise.Supervisor {
	if s.Supervise != nil || s.Faults != nil && s.Faults.GrayEnabled() {
		return supervise.New(sim, supervise.DefaultPolicy())
	}
	return nil
}

// rescues reports whether a supervised analysis job declared lost is
// resubmitted once (one rescue deep — the rescue itself is not rescued):
// under a step budget, and whenever gray failures are injected, so a lost
// analysis job degrades to a resubmission instead of a missing product.
func (s *Scenario) rescues() bool {
	return s.StepBudget > 0 || s.Faults != nil && s.Faults.GrayEnabled()
}

// stepDur returns the step's full duration inside the simulation job under
// gray in-situ slowdowns and the step budget, and whether the step
// degraded (spilled its center work off-line). Like postDur it is a pure
// function of (profile seed, step), so two runs plan identically and a
// resumed campaign re-plans exactly what the crashed one planned.
func (e *engine) stepDur(step int) (float64, bool) {
	f := e.inj.StepSlowdown(step)
	insitu := (e.ph.fof + e.ph.centerSmallMax) * f
	writes := e.ph.l2Write + e.ph.l3Write
	if e.s.StepBudget > 0 && insitu > e.s.StepBudget {
		// Halo finding feeds the split, so it stays in situ.
		return e.s.StepInterval + e.ph.fof*f + writes, true
	}
	return e.s.StepInterval + insitu + writes, false
}

// postDur returns the step's post-job duration (the spilled small-halo
// centers included when the step degraded).
func (e *engine) postDur(step int) float64 {
	if _, degraded := e.stepDur(step); degraded {
		return e.postNom + e.ph.postSpillCenter
	}
	return e.postNom
}

// planEmissions walks steps e.first..e.last, accounting degraded steps into
// the resilience counters and the supervisor log, and returns each step's
// cumulative end-offset within the simulation job (indexed by step) plus the job's total
// duration (fault-free: the step count times the nominal step exactly).
func (e *engine) planEmissions() ([]float64, float64) {
	offsets := make([]float64, e.last+1)
	cum := 0.0
	for step := e.first; step <= e.last; step++ {
		dur, degraded := e.stepDur(step)
		cum += dur
		offsets[step] = cum
		if degraded {
			e.res.DegradedSteps++
			e.sup.Note(fmt.Sprintf("step%03d", step), "degrade",
				fmt.Sprintf("in-situ %.0fs over %.0fs budget; centers spill off-line",
					(e.ph.fof+e.ph.centerSmallMax)*e.inj.StepSlowdown(step), e.s.StepBudget))
		}
	}
	return offsets, cum
}
