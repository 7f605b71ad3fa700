package core

import (
	"fmt"

	"repro/internal/integrity"
	"repro/internal/supervise"
)

// CampaignReport summarizes a full multi-snapshot analysis campaign under
// the co-scheduled combined workflow — the situation Table 4's caption
// gestures at ("the reader should keep in mind though that running the
// full analysis would involve 100 snapshots", §4.2) and the paper's
// pile-up discussion (§3.2).
type CampaignReport struct {
	// Timesteps analyzed.
	Timesteps int
	// SimWallClock is when the simulation job finishes; TotalWallClock
	// when the last analysis product lands.
	SimWallClock, TotalWallClock float64
	// SimpleWallClock is the equivalent simple (post-job-after-sim)
	// workflow's completion time for comparison.
	SimpleWallClock float64
	// OverlapFraction is the share of analysis jobs that started before
	// the simulation ended.
	OverlapFraction float64
	// MaxPileUp is the deepest analysis queue seen ("some level of
	// 'pile-up' in the analysis stack").
	MaxPileUp int
	// AnalysisJobs submitted and completed.
	AnalysisJobs int
	// TrailingSeconds is analysis work remaining after the simulation
	// finished.
	TrailingSeconds float64
	// Resilience accounts failures and recoveries when the scenario has a
	// fault profile (all zero otherwise).
	Resilience Resilience
	// Resume accounts checkpoint/restart activity when the campaign ran
	// through ResumableCampaign (all zero on a fresh, uncrashed run, so a
	// persisted campaign's report stays comparable to Campaign's).
	Resume ResumeStats
	// Decisions is the supervision decision log when the campaign was
	// supervised (nil otherwise).
	Decisions []supervise.Decision
	// Integrity accounts corruption detection and repair when the campaign
	// ran with bit-rot injection or scrubbing (all zero otherwise, so
	// reports stay comparable to integrity-free runs).
	Integrity integrity.Stats
	// ScrubDecisions is the scrub/repair decision log (nil when no
	// integrity machinery ran). Deterministic for a fixed seed.
	ScrubDecisions []integrity.Decision
}

// Campaign runs a co-scheduled combined-workflow campaign over the given
// number of timesteps on the discrete-event clock, with analysis jobs
// auto-submitted by the listener as each step's Level 2 file lands.
//
// It is Run(s, CombinedCoScheduled) at Timesteps = timesteps on the same
// engine, with two deliberate differences: the simulation job is named
// "sim" (fault draws are keyed by job name), and analysis jobs pay no
// facility queue wait — Campaign ignores Scenario.PostQueueWait, which Run
// applies to every post job. With PostQueueWait = 0 and no faults the two
// agree on wall clock and job starts (TestRunCoScheduledMatchesCampaign).
func Campaign(s *Scenario, timesteps int) (*CampaignReport, error) {
	e, err := newCampaignEngine(s, timesteps)
	if err != nil {
		return nil, err
	}
	if err := e.run(1, timesteps, 0); err != nil {
		return nil, err
	}
	return e.campaignReport(), nil
}

// newCampaignEngine sets up the engine the way Campaign and
// ResumableCampaign run it: co-scheduled, observed, no post queue wait.
func newCampaignEngine(s *Scenario, timesteps int) (*engine, error) {
	if timesteps <= 0 {
		return nil, fmt.Errorf("core: campaign needs timesteps > 0")
	}
	ph, err := computePhases(s)
	if err != nil {
		return nil, err
	}
	return newEngine(s, ph, CombinedCoScheduled, "sim", 0, s.Obs)
}

// campaignReport summarizes a completed run over steps 1..e.last.
func (e *engine) campaignReport() *CampaignReport {
	rep := &CampaignReport{
		Timesteps:      e.last,
		SimWallClock:   e.simEnd,
		TotalWallClock: e.sim.Now(),
		AnalysisJobs:   len(e.postCluster.Finished()),
		MaxPileUp:      e.postCluster.MaxPendingSeen,
		Resilience:     e.res,
		Decisions:      e.sup.Decisions(),
	}
	overlapped := 0
	for _, start := range e.jobStarts {
		if start < rep.SimWallClock {
			overlapped++
		}
	}
	if len(e.jobStarts) > 0 {
		rep.OverlapFraction = float64(overlapped) / float64(len(e.jobStarts))
	}
	rep.TrailingSeconds = rep.TotalWallClock - rep.SimWallClock
	rep.SimpleWallClock = rep.SimWallClock + float64(e.last)*e.postNom
	return rep
}
