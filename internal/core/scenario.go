package core

import (
	"fmt"

	"repro/internal/cosmo"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/supervise"
)

// Scenario fixes everything a workflow comparison needs: the machine, the
// simulation size, the synthesized halo population, the split threshold,
// and the calibrated kernel costs.
type Scenario struct {
	// Name for reports.
	Name string
	// Machine hosting the simulation (and, unless redirected, the post-
	// processing).
	Machine platform.Machine
	// PostMachine hosts the off-line analysis of Level 2 data (equal to
	// Machine for the paper's Table 4 runs; Moonlight for Q Continuum).
	PostMachine platform.Machine
	// Costs are the calibrated kernel coefficients for this scenario.
	Costs platform.AnalysisCosts
	// SimNodes is the simulation's node count; PostNodes the off-line
	// analysis job's.
	SimNodes, PostNodes int
	// NP is particles per dimension; BoxMpch the comoving box in Mpc/h.
	NP      int
	BoxMpch float64
	// Population is the halo catalog (synthesized or measured).
	Population *HaloPopulation
	// SplitThreshold is the in-situ/off-line cut in particles (300,000 in
	// the paper); 0 disables the split.
	SplitThreshold int
	// Timesteps is how many analysis steps the workflow covers (1 for the
	// Table 4 single-step comparison; 100 for a full campaign).
	Timesteps int
	// StepInterval is the simulated wall time between analysis steps when
	// Timesteps > 1 (the simulation segments between outputs).
	StepInterval float64
	// OfflineQueueWait models the facility wait for a full-size off-line
	// allocation ("This can add days to a week of wait time", §4.2).
	OfflineQueueWait float64
	// PostQueueWait models the (much shorter) wait for the small Level 2
	// analysis job.
	PostQueueWait float64
	// ListenerPoll is the co-scheduling listener's poll interval.
	ListenerPoll float64
	// Faults optionally injects deterministic failures (job death, node
	// drains, write faults, listener outages) into the workflow run. nil —
	// or a profile that injects nothing — reproduces the paper's
	// failure-free world exactly. Failed jobs are resubmitted with sched's
	// retry backoff.
	Faults *fault.Profile
	// Supervise, when set, turns gray-failure supervision on. nil turns it
	// on exactly when Faults injects gray failures (slowdowns, stalls,
	// submit refusals) — a stalled attempt can only be recovered by
	// supervision — and leaves fail-stop-only and failure-free runs
	// unsupervised.
	Supervise *supervise.Policy
	// StepBudget is the paper's escape hatch made adaptive: "If it turns
	// out that the analysis tasks are too compute-intensive ... the data
	// would be moved off to the analysis cluster" (§4.2). A step whose
	// (slowed) in-situ analysis runs past StepBudget seconds keeps only
	// halo finding in-situ and spills its small-halo center work to the
	// Level 2 off-line path — the campaign degrades instead of failing.
	// 0 disables it.
	StepBudget float64
	// Scrub, when set, co-schedules a background integrity scrubber with
	// the analysis jobs: small periodic jobs on the post cluster re-verify
	// committed products against the lineage ledger and repair mismatches
	// by minimal re-derivation. Only ResumableCampaign honors it (plain
	// Campaign has no persisted products to scrub). nil disables scrubbing;
	// zero fields take defaults (see ScrubPolicy).
	Scrub *ScrubPolicy
	// Obs, when set, records the run's spans (campaign → step → job) and
	// metrics against the engine's DES clock; the campaign engine injects
	// its clock via Obs.SetClock at setup. nil disables observability at
	// zero cost (see internal/obs).
	Obs *obs.Observer
}

// ScrubPolicy shapes the co-scheduled background scrubber. The zero value
// of each field takes the default noted on it. Every scrub job holds one
// post node for 5 virtual seconds.
type ScrubPolicy struct {
	// Interval is the virtual seconds between scrub jobs (default 300).
	Interval float64
	// Batch is how many products one scrub job re-verifies (default 4).
	Batch int
}

// One scrub job's shape: a single node, so the scrubber rides along
// without displacing analysis.
const (
	scrubJobNodes    = 1
	scrubJobDuration = 5
)

// withDefaults resolves zero fields to the documented defaults.
func (p ScrubPolicy) withDefaults() ScrubPolicy {
	if p.Interval == 0 {
		p.Interval = 300
	}
	if p.Batch == 0 {
		p.Batch = 4
	}
	return p
}

// Validate reports scenario construction errors.
func (s *Scenario) Validate() error {
	switch {
	case s.Population == nil:
		return fmt.Errorf("core: scenario %q has no halo population", s.Name)
	case s.SimNodes <= 0 || s.PostNodes <= 0:
		return fmt.Errorf("core: scenario %q node counts %d/%d", s.Name, s.SimNodes, s.PostNodes)
	case s.NP <= 0 || s.BoxMpch <= 0:
		return fmt.Errorf("core: scenario %q size %d/%g", s.Name, s.NP, s.BoxMpch)
	case s.Timesteps <= 0:
		return fmt.Errorf("core: scenario %q timesteps %d", s.Name, s.Timesteps)
	}
	if err := s.Machine.Validate(); err != nil {
		return err
	}
	if err := s.PostMachine.Validate(); err != nil {
		return err
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return err
		}
	}
	if s.StepBudget < 0 {
		return fmt.Errorf("core: scenario %q step budget %g", s.Name, s.StepBudget)
	}
	if s.Scrub != nil {
		if s.Scrub.Interval < 0 || s.Scrub.Batch < 0 {
			return fmt.Errorf("core: scenario %q scrub policy has negative fields", s.Name)
		}
	}
	return nil
}

// TotalParticles returns NP³.
func (s *Scenario) TotalParticles() float64 {
	n := float64(s.NP)
	return n * n * n
}

// Levels computes the data hierarchy for the scenario's split threshold.
func (s *Scenario) Levels() (DataLevels, error) {
	return ComputeDataLevels(s.TotalParticles(), s.Population, s.SplitThreshold)
}

// DownscaledScenario builds the paper's §4.2 test problem: 1024³ particles
// in a (162.5 Mpc)³ box — 512x smaller than Q Continuum at the same mass
// resolution — on 32 Titan nodes, post-processing Level 2 on a 4-node job.
// The kernel coefficients are recalibrated to the Table 4 anchors: the
// combined in-situ phase (halo finding + centers ≤ 300k) measured 361 s,
// of which FOF is ~300 s; MaxSize caps the sampled population at the
// paper's reported largest halo (2,548,321 particles).
func DownscaledScenario(seed int64) (*Scenario, error) {
	p := cosmo.Default()
	const boxMpch = 115.4 // 162.5 Mpc at h = 0.71
	pop, err := SynthesizePopulation(p, SynthesisOptions{
		BoxMpch:     boxMpch,
		NP:          1024,
		Z:           0,
		MinSize:     40,
		SampleAbove: 300000,
		MaxSize:     2_600_000,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	costs := platform.DefaultCosts()
	// Table 4 calibration: ~300 s of FOF per node for 1024³/32 nodes.
	costs.FOFParticleSeconds = 300.0 / (1024.0 * 1024 * 1024 / 32)
	return &Scenario{
		Name:             "downscaled-1024",
		Machine:          platform.Titan(),
		PostMachine:      platform.Titan(),
		Costs:            costs,
		SimNodes:         32,
		PostNodes:        4,
		NP:               1024,
		BoxMpch:          boxMpch,
		Population:       pop,
		SplitThreshold:   300000,
		Timesteps:        1,
		StepInterval:     775,
		OfflineQueueWait: 3 * 86400, // "days to a week"
		PostQueueWait:    1800,
		ListenerPoll:     30,
	}, nil
}

// QContinuumScenario builds the §4.1 study: 8192³ particles in a
// (1300 Mpc)³ box on 16,384 Titan nodes, Level 2 analysis off-loaded to
// Moonlight.
func QContinuumScenario(seed int64) (*Scenario, error) {
	p := cosmo.Default()
	const boxMpch = 923.0 // 1300 Mpc at h = 0.71
	pop, err := SynthesizePopulation(p, SynthesisOptions{
		BoxMpch:     boxMpch,
		NP:          8192,
		Z:           0,
		MinSize:     40,
		SampleAbove: 300000,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name:             "q-continuum-8192",
		Machine:          platform.Titan(),
		PostMachine:      platform.Moonlight(),
		Costs:            platform.DefaultCosts(),
		SimNodes:         16384,
		PostNodes:        128, // 128 single-node jobs' worth of Moonlight
		NP:               8192,
		BoxMpch:          boxMpch,
		Population:       pop,
		SplitThreshold:   300000,
		Timesteps:        1,
		StepInterval:     3600,
		OfflineQueueWait: 5 * 86400,
		PostQueueWait:    1800,
		ListenerPoll:     60,
	}, nil
}
