package core

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/supervise"
)

// Kind selects one of the paper's workflow strategies (Figure 1, Table 3).
type Kind string

// The five strategies of Table 3.
const (
	InSitu              Kind = "in-situ"
	Offline             Kind = "off-line"
	CombinedSimple      Kind = "in-situ/off-line simple"
	CombinedCoScheduled Kind = "in-situ/off-line co-scheduled"
	CombinedInTransit   Kind = "in-situ/off-line in-transit"
)

// Kinds lists every workflow in Table 3 order.
func Kinds() []Kind {
	return []Kind{InSitu, Offline, CombinedSimple, CombinedCoScheduled, CombinedInTransit}
}

// Report carries the phase timings and cost accounting of one workflow
// run — the rows of Tables 3 and 4.
type Report struct {
	Workflow Kind
	Scenario string

	// Simulation-job phases, seconds (Table 4 "Simulation" columns).
	SimSeconds      float64 // the physics time step(s) themselves
	AnalysisSeconds float64 // in-situ analysis inside the simulation job
	SimWriteSeconds float64 // Level 1/2/3 writes from the simulation job

	// Post-processing job phases (Table 4 "Post-processing" columns).
	PostQueueWait       float64
	ReadSeconds         float64
	RedistributeSeconds float64
	PostAnalysisSeconds float64
	PostWriteSeconds    float64

	// Node counts.
	SimNodes, PostNodes int

	// Core-hour accounting (Table 3): the analysis-attributable charge is
	// the sim job's analysis+write share plus the whole post job.
	AnalysisCoreHours float64
	SimCoreHours      float64

	// Wall clock from simulation start until all analysis products exist,
	// from the discrete-event run (includes queue waits and overlap).
	WallClock float64

	// Table 3 qualitative columns.
	IOLevel, RedistLevel, Queueing string

	// Co-scheduling detail: analysis job start times (virtual seconds).
	AnalysisJobStarts []float64

	// Resilience accounts failures and recoveries when the scenario has a
	// fault profile (all zero otherwise).
	Resilience Resilience

	// Decisions is the supervision decision log when the run was
	// supervised (nil otherwise) — a deterministic record of every watch,
	// suspect, hedge, degrade and rescue, identical across reruns of the
	// same seed.
	Decisions []supervise.Decision
}

// SimJobTotal is the simulation job's wall time per analysis step.
func (r *Report) SimJobTotal() float64 {
	return r.SimSeconds + r.AnalysisSeconds + r.SimWriteSeconds
}

// PostJobTotal is the post-processing job's execution time (excluding
// queueing).
func (r *Report) PostJobTotal() float64 {
	return r.ReadSeconds + r.RedistributeSeconds + r.PostAnalysisSeconds + r.PostWriteSeconds
}

// phases computes the deterministic per-step phase durations shared by
// all workflows of a scenario.
type phases struct {
	fof             float64 // per-node FOF (max node)
	centerAllMax    float64 // max-node in-situ centers, all halos
	centerSmallMax  float64 // max-node in-situ centers, halos <= threshold
	postCenter      float64 // makespan of off-line centers for large halos
	postSpillCenter float64 // off-line cost of spilled small-halo centers
	levels          DataLevels
	l1Write         float64
	l1Read          float64
	l1Redist        float64
	l2Write         float64
	l2Read          float64
	l2Redist        float64
	l3Write         float64
}

func computePhases(s *Scenario) (*phases, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	lv, err := s.Levels()
	if err != nil {
		return nil, err
	}
	ph := &phases{levels: lv}
	nLocal := int(s.TotalParticles() / float64(s.SimNodes))
	ph.fof = s.Costs.FOFSeconds(s.Machine, nLocal, 1.0)

	pairCostGPU := s.Costs.CenterPairSeconds * s.Machine.KernelFactor(true)
	nodesAll := s.Population.NodeAssignment(s.SimNodes, 0, 0, 7)
	nodesSmall := s.Population.NodeAssignment(s.SimNodes, 0, s.SplitThreshold, 7)
	ph.centerAllMax = maxOf(nodesAll) * pairCostGPU
	ph.centerSmallMax = maxOf(nodesSmall) * pairCostGPU

	// Off-line centers for large halos on the post machine: halos are
	// distributed "so that each rank has roughly the same workload"
	// (§4.1), so the makespan is the larger of the mean load and the
	// single largest halo.
	postPairCost := s.Costs.CenterPairSeconds * s.PostMachine.KernelFactor(true)
	totalLarge := s.Population.PairSum(s.SplitThreshold, 0) * postPairCost
	largest := float64(s.Population.LargestSize())
	tMax := largest * largest * postPairCost
	ph.postCenter = totalLarge / float64(s.PostNodes)
	if tMax > ph.postCenter {
		ph.postCenter = tMax
	}
	// A degraded step spills the small-halo center work to the off-line
	// job; well-balanced small halos amortize over the post nodes.
	if s.SplitThreshold > 0 {
		ph.postSpillCenter = s.Population.PairSum(0, s.SplitThreshold) * postPairCost / float64(s.PostNodes)
	}

	ph.l1Write = s.Machine.IOSeconds(lv.Level1Bytes, s.SimNodes)
	ph.l1Read = s.Machine.IOSeconds(lv.Level1Bytes, s.SimNodes)
	ph.l1Redist = s.Machine.RedistributeSeconds(lv.Level1Bytes, s.SimNodes)
	ph.l2Write = s.Machine.IOSeconds(lv.Level2Bytes, s.SimNodes)
	ph.l2Read = s.PostMachine.IOSeconds(lv.Level2Bytes, s.PostNodes)
	ph.l2Redist = s.PostMachine.RedistributeSeconds(lv.Level2Bytes, s.PostNodes)
	ph.l3Write = s.Machine.IOSeconds(lv.Level3Bytes, s.SimNodes)
	return ph, nil
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// cluster builds a cluster on machine m under the given supervisor and,
// with a non-nil injector, the scenario's faults, retry policy and drain
// windows (a nil injector preserves the failure-free event sequence
// exactly).
func (s *Scenario) cluster(sim *des.Sim, m platform.Machine, inj *fault.Injector, sup *supervise.Supervisor) (*sched.Cluster, error) {
	c, err := sched.NewCluster(sim, m)
	if err != nil {
		return nil, err
	}
	c.Supervise = sup
	if inj != nil {
		c.Faults, c.Retry = inj, s.retry()
		c.ApplyDrains(inj.NodeDrains())
	}
	return c, nil
}

// Run executes the chosen workflow for the scenario on a discrete-event
// clock and returns its report. Timesteps > 1 exercises the co-scheduling
// pile-up behaviour; the Table 3/4 comparisons use Timesteps = 1.
func Run(s *Scenario, kind Kind) (*Report, error) {
	ph, err := computePhases(s)
	if err != nil {
		return nil, err
	}
	switch kind {
	case InSitu:
		return runInSitu(s, ph)
	case Offline:
		return runOffline(s, ph)
	case CombinedSimple, CombinedCoScheduled, CombinedInTransit:
		return runCombined(s, ph, kind)
	default:
		return nil, fmt.Errorf("core: unknown workflow kind %q", kind)
	}
}

// runInSitu: everything inside the simulation job; no I/O between
// simulation and analysis, no separate queueing.
func runInSitu(s *Scenario, ph *phases) (*Report, error) {
	r := &Report{
		Workflow: InSitu, Scenario: s.Name,
		SimNodes: s.SimNodes, PostNodes: 0,
		IOLevel: "none", RedistLevel: "none", Queueing: "none",
	}
	var sim des.Sim
	cluster, err := s.cluster(&sim, s.Machine, s.injector(), s.supervision(&sim))
	if err != nil {
		return nil, err
	}
	analysis := ph.fof + ph.centerAllMax
	write := ph.l3Write
	stepDur := s.StepInterval + analysis + write
	job := &sched.Job{Name: "sim+insitu", Nodes: s.SimNodes, Duration: float64(s.Timesteps) * stepDur}
	if err := cluster.Submit(job); err != nil {
		return nil, err
	}
	sim.Run()
	r.Resilience.addCluster(cluster)
	r.Decisions = cluster.Supervise.Decisions()
	r.SimSeconds = float64(s.Timesteps) * s.StepInterval
	r.AnalysisSeconds = float64(s.Timesteps) * analysis
	r.SimWriteSeconds = float64(s.Timesteps) * write
	r.WallClock = sim.Now()
	r.AnalysisCoreHours = s.Machine.ChargeCoreHours(s.SimNodes, r.AnalysisSeconds+r.SimWriteSeconds)
	r.SimCoreHours = s.Machine.ChargeCoreHours(s.SimNodes, r.SimSeconds)
	emitPhaseSpans(s, r)
	return r, nil
}

// runOffline: the simulation writes Level 1 every step; a full-size
// analysis job queues after the simulation, reads everything back,
// redistributes, and analyzes.
func runOffline(s *Scenario, ph *phases) (*Report, error) {
	r := &Report{
		Workflow: Offline, Scenario: s.Name,
		SimNodes: s.SimNodes, PostNodes: s.SimNodes,
		IOLevel: "Level 1", RedistLevel: "Level 1", Queueing: "full",
	}
	var sim des.Sim
	cluster, err := s.cluster(&sim, s.Machine, s.injector(), s.supervision(&sim))
	if err != nil {
		return nil, err
	}
	cluster.ExtraQueueWait = func(j *sched.Job) float64 {
		if j.Name == "offline-analysis" {
			return s.OfflineQueueWait
		}
		return 0
	}
	analysis := ph.fof + ph.centerAllMax
	perStepPost := ph.l1Read + ph.l1Redist + analysis + ph.l3Write
	simJob := &sched.Job{
		Name: "sim", Nodes: s.SimNodes,
		Duration: float64(s.Timesteps) * (s.StepInterval + ph.l1Write),
		OnComplete: func(*sched.Job) {
			post := &sched.Job{Name: "offline-analysis", Nodes: s.SimNodes,
				Duration: float64(s.Timesteps) * perStepPost}
			post.OnStart = func(j *sched.Job) { r.PostQueueWait = j.QueueWait() }
			_ = cluster.Submit(post)
		},
	}
	if err := cluster.Submit(simJob); err != nil {
		return nil, err
	}
	sim.Run()
	r.Resilience.addCluster(cluster)
	r.Decisions = cluster.Supervise.Decisions()
	steps := float64(s.Timesteps)
	r.SimSeconds = steps * s.StepInterval
	r.SimWriteSeconds = steps * ph.l1Write
	r.ReadSeconds = steps * ph.l1Read
	r.RedistributeSeconds = steps * ph.l1Redist
	r.PostAnalysisSeconds = steps * analysis
	r.PostWriteSeconds = steps * ph.l3Write
	r.WallClock = sim.Now()
	r.AnalysisCoreHours = s.Machine.ChargeCoreHours(s.SimNodes, r.SimWriteSeconds) +
		s.Machine.ChargeCoreHours(s.SimNodes, r.PostJobTotal())
	r.SimCoreHours = s.Machine.ChargeCoreHours(s.SimNodes, r.SimSeconds)
	emitPhaseSpans(s, r)
	return r, nil
}

// runCombined: halo finding plus small-halo centers in-situ; large-halo
// particles to Level 2; a small post job finishes the centers. The three
// variants differ in transport and scheduling of the post job:
//
//   - simple: Level 2 to disk; one post job queued after the simulation.
//   - co-scheduled: Level 2 to disk; the listener submits a post job per
//     timestep while the simulation runs.
//   - in-transit: Level 2 through shared external memory (no file I/O);
//     analysis resources are held concurrently, so no queue wait.
func runCombined(s *Scenario, ph *phases, kind Kind) (*Report, error) {
	r := &Report{
		Workflow: kind, Scenario: s.Name,
		SimNodes: s.SimNodes, PostNodes: s.PostNodes,
		IOLevel: "Level 2", RedistLevel: "Level 2", Queueing: "partial simult",
		PostQueueWait: s.PostQueueWait,
	}
	switch kind {
	case CombinedSimple:
		r.Queueing = "partial"
	case CombinedInTransit:
		// Table 3 marks in-transit core hours "(n/a)" — the set-up did not
		// exist on accessible systems; the charge model below still reports
		// what it would cost on equivalent hardware.
		r.IOLevel = "none"
		r.PostQueueWait = 0 // analysis partition held alongside the run
	}
	// The engine inside Run is uninstrumented: emitPhaseSpans lays the
	// report's phase breakdown on s.Obs instead (see obs.go).
	e, err := newEngine(s, ph, kind, "sim+insitu", r.PostQueueWait, nil)
	if err != nil {
		return nil, err
	}
	if err := e.run(1, s.Timesteps, 0); err != nil {
		return nil, err
	}
	r.Resilience = e.res
	r.Decisions = e.sup.Decisions()
	r.AnalysisJobStarts = e.jobStarts

	steps := float64(s.Timesteps)
	r.SimSeconds = steps * s.StepInterval
	r.AnalysisSeconds = steps * (ph.fof + ph.centerSmallMax)
	r.SimWriteSeconds = steps * (e.ph.l2Write + ph.l3Write)
	r.ReadSeconds = steps * e.ph.l2Read
	r.RedistributeSeconds = steps * ph.l2Redist
	r.PostAnalysisSeconds = steps * ph.postCenter
	r.PostWriteSeconds = steps * ph.l3Write
	r.WallClock = e.sim.Now()
	r.AnalysisCoreHours = s.Machine.ChargeCoreHours(s.SimNodes, r.AnalysisSeconds+r.SimWriteSeconds) +
		s.PostMachine.ChargeCoreHours(s.PostNodes, r.PostJobTotal())
	r.SimCoreHours = s.Machine.ChargeCoreHours(s.SimNodes, r.SimSeconds)
	emitPhaseSpans(s, r)
	return r, nil
}
