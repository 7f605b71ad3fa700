// Package cosmotools is the in-situ analysis framework embedded in the
// simulation — the reproduction of HACC's CosmoTools (§3.1).
//
// The design mirrors the paper's description point for point: a pure
// abstract base (here the Algorithm interface) with SetParameters /
// ShouldExecute / Execute; a manager holding "a list of references to
// concrete InSituAlgorithm instances" that "serves as the primary object
// interacting with the simulation code"; configuration through the
// simulation input deck, which carries "a trigger for CosmoTools and a
// pointer to the CosmoTools configuration file" naming each tool, the time
// steps at which to run it, and its parameters; zero-copy operation
// directly on the distributed Level 1 particle data; and a stand-alone
// driver (cmd/cosmotools) that invokes the same algorithms off-line for the
// co-scheduled workflow.
package cosmotools

import (
	"fmt"
	"sort"

	"repro/internal/nbody"
)

// Context carries the simulation state an algorithm sees at an analysis
// step. Particles are the live Level 1 data, shared zero-copy — algorithms
// must not mutate them.
type Context struct {
	// Step is the simulation step number (1-based).
	Step int
	// ScaleFactor and Redshift give the cosmic time of the data.
	ScaleFactor float64
	Redshift    float64
	// Box is the comoving box side.
	Box float64
	// ParticleMass is the equal particle mass in Msun/h.
	ParticleMass float64
	// Particles is the (zero-copy) Level 1 particle data.
	Particles *nbody.Particles
	// Outputs collects analysis products by "<algorithm>/<key>"; the
	// workflow layer decides which are Level 2 (data handed to off-line
	// analysis) and which are Level 3 (final catalogs).
	Outputs map[string]any
}

// NewContext prepares an analysis context.
func NewContext(step int, a, box, particleMass float64, p *nbody.Particles) *Context {
	return &Context{
		Step:         step,
		ScaleFactor:  a,
		Redshift:     1/a - 1,
		Box:          box,
		ParticleMass: particleMass,
		Particles:    p,
		Outputs:      map[string]any{},
	}
}

// Algorithm is the in-situ analysis contract; concrete analyses implement
// it (the paper's InSituAlgorithm pure abstract base with its three
// virtual functions).
type Algorithm interface {
	// Name identifies the algorithm in configs and outputs.
	Name() string
	// SetParameters configures the algorithm from its config section.
	SetParameters(params map[string]string) error
	// ShouldExecute decides whether to run at this step.
	ShouldExecute(ctx *Context) bool
	// Execute performs the analysis, writing products into ctx.Outputs.
	Execute(ctx *Context) error
}

// Manager holds the registered algorithms and drives them from the
// simulation loop — the paper's InSituAnalysisManager.
type Manager struct {
	algorithms []Algorithm
}

// NewStandardManager is the tool set-up the simulation and the stand-alone
// driver share: every built-in tool registered — power spectrum and halo
// finder on every analysis step, SO masses, subhalos and halo properties
// dormant until a config section gives them a schedule — then configured
// from cfg. A nil cfg selects defaults scaled to the run: linking length
// 0.2x the mean inter-particle spacing of np particles per dimension in
// box, and P(k) on the ng mesh.
func NewStandardManager(cfg *Config, box float64, np, ng int) (*Manager, error) {
	ps, hf := NewPowerSpectrum(), NewHaloFinder()
	optional := []Algorithm{NewSOMass(), NewSubhaloFinder(), NewHaloProperties()}
	for _, a := range optional {
		if err := a.SetParameters(map[string]string{"every": "0"}); err != nil {
			return nil, err
		}
	}
	m := &Manager{}
	for _, a := range append([]Algorithm{ps, hf}, optional...) {
		if err := m.Register(a); err != nil {
			return nil, err
		}
	}
	var err error
	if cfg != nil {
		err = m.Configure(cfg)
	} else if err = hf.SetParameters(map[string]string{
		"linking_length": fmt.Sprint(0.2 * box / float64(np)),
		"min_size":       "10",
	}); err == nil {
		err = ps.SetParameters(map[string]string{"grid": fmt.Sprint(ng), "bins": "16"})
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Register appends an algorithm. Registering two algorithms with the same
// name is rejected so outputs cannot collide.
func (m *Manager) Register(a Algorithm) error {
	for _, existing := range m.algorithms {
		if existing.Name() == a.Name() {
			return fmt.Errorf("cosmotools: algorithm %q already registered", a.Name())
		}
	}
	m.algorithms = append(m.algorithms, a)
	return nil
}

// Algorithms returns the registered algorithm names in registration order.
func (m *Manager) Algorithms() []string {
	names := make([]string, len(m.algorithms))
	for i, a := range m.algorithms {
		names[i] = a.Name()
	}
	return names
}

// Configure applies a parsed CosmoTools config: each section configures
// the algorithm of the same name. Sections without a registered algorithm
// are an error (a misspelled tool must not silently no-op).
func (m *Manager) Configure(cfg *Config) error {
	for _, section := range cfg.SectionNames() {
		found := false
		for _, a := range m.algorithms {
			if a.Name() == section {
				if err := a.SetParameters(cfg.Section(section)); err != nil {
					return fmt.Errorf("cosmotools: configuring %q: %w", section, err)
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("cosmotools: config section %q matches no registered algorithm", section)
		}
	}
	return nil
}

// Execute runs every algorithm whose ShouldExecute returns true, in
// registration order. It is called from within the main physics loop ("minimally intrusive ... a simple
// interface that can be invoked within the main physics loop").
func (m *Manager) Execute(ctx *Context) error {
	for _, a := range m.algorithms {
		if !a.ShouldExecute(ctx) {
			continue
		}
		if err := a.Execute(ctx); err != nil {
			return fmt.Errorf("cosmotools: %s at step %d: %w", a.Name(), ctx.Step, err)
		}
	}
	return nil
}

// SortedOutputKeys lists ctx.Outputs keys deterministically.
func (ctx *Context) SortedOutputKeys() []string {
	keys := make([]string, 0, len(ctx.Outputs))
	for k := range ctx.Outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EverySchedule is the common cadence rule: run when step % Every == 0, or
// at the explicitly listed steps.
type EverySchedule struct {
	// Every runs the algorithm each time step divides evenly; 0 disables
	// cadence-based triggering.
	Every int
	// Steps lists explicit trigger steps.
	Steps map[int]bool
}

// ShouldRun evaluates the schedule.
func (s EverySchedule) ShouldRun(step int) bool {
	if s.Every > 0 && step%s.Every == 0 {
		return true
	}
	return s.Steps[step]
}

// MaybeParseSchedule returns the schedule from params when either the
// "every" or "steps" key is present; otherwise it returns current
// unchanged, so an algorithm's default cadence survives a config section
// that only sets analysis parameters.
func MaybeParseSchedule(params map[string]string, current EverySchedule) (EverySchedule, error) {
	_, hasEvery := params["every"]
	_, hasSteps := params["steps"]
	if !hasEvery && !hasSteps {
		return current, nil
	}
	return ParseSchedule(params)
}

// ParseSchedule reads "every" and "steps" keys from params.
func ParseSchedule(params map[string]string) (EverySchedule, error) {
	out := EverySchedule{Steps: map[int]bool{}}
	if v, ok := params["every"]; ok {
		n, err := parseInt(v)
		if err != nil || n < 0 {
			return out, fmt.Errorf("cosmotools: bad every=%q", v)
		}
		out.Every = n
	}
	if v, ok := params["steps"]; ok {
		for _, f := range splitList(v) {
			n, err := parseInt(f)
			if err != nil {
				return out, fmt.Errorf("cosmotools: bad steps entry %q", f)
			}
			out.Steps[n] = true
		}
	}
	return out, nil
}
