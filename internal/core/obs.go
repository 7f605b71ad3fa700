package core

// Observability hooks for the workflow runners: after a Run() completes,
// emitPhaseSpans lays the report's calibrated phase durations down as
// retroactive spans, one category per column of the paper's Table 3/4
// breakdown. Priced under obs.TitanChargePolicy, the resulting cost
// report reproduces the paper's in-situ vs off-line vs co-scheduled
// comparison: sim/insitu-analysis/sim-write spans charge the simulation
// allocation, the post-* spans charge the post machine, and post-queue
// carries wall time at zero nodes — queueing costs time, never
// core-hours, exactly the paper's accounting.
//
// Campaign and ResumableCampaign instead attach the observer to the engine
// (engine.go), which records live spans (campaign → step → job) as events
// execute; the two instrumentations are complementary views, never mixed
// on one observer by the CLI.

// emitPhaseSpans records the workflow's phase breakdown on s.Obs as a
// sequential timeline: the simulation job's phases back-to-back from 0,
// then the post job's phases after its queue wait. No-op without an
// observer.
func emitPhaseSpans(s *Scenario, r *Report) {
	if s.Obs == nil {
		return
	}
	o := s.Obs
	root := o.SpanAt(nil, "workflow", string(r.Workflow), 0, r.WallClock)
	t := 0.0
	lay := func(cat string, dur float64, machine string, nodes int) {
		if dur <= 0 {
			return
		}
		o.SpanAt(root, cat, cat, t, t+dur).Charge(machine, nodes)
		t += dur
	}
	sim := s.Machine.Name
	lay("sim", r.SimSeconds, sim, r.SimNodes)
	lay("insitu-analysis", r.AnalysisSeconds, sim, r.SimNodes)
	lay("sim-write", r.SimWriteSeconds, sim, r.SimNodes)
	if r.PostNodes <= 0 {
		return // pure in-situ: no post job
	}
	// The off-line workflow re-queues on the simulation machine itself;
	// the combined variants post-process on the (possibly distinct) post
	// machine.
	post := s.PostMachine.Name
	if r.Workflow == Offline {
		post = s.Machine.Name
	}
	lay("post-queue", r.PostQueueWait, post, 0) // wall time, no charge
	lay("post-read", r.ReadSeconds, post, r.PostNodes)
	lay("post-redistribute", r.RedistributeSeconds, post, r.PostNodes)
	lay("post-analysis", r.PostAnalysisSeconds, post, r.PostNodes)
	lay("post-write", r.PostWriteSeconds, post, r.PostNodes)
}
