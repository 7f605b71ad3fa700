package nbody

import (
	"fmt"

	"repro/internal/cosmo"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/periodic"
)

// Simulation is a particle-mesh N-body run in a periodic comoving box.
//
// Code units: lengths in Mpc/h, H0 = 1, and velocities are the canonical
// momenta p = a² dx/dt. With those choices the equations of motion are
//
//	dx/da = p / (a³ E(a))
//	dp/da = -∇φ / (a E(a))
//	∇²φ   = (3/2) Ωm δ / a
//
// which the KDK (kick-drift-kick) leapfrog integrates in equal steps of the
// scale factor a, the same time variable HACC production runs report
// snapshots in (the paper labels outputs by redshift).
type Simulation struct {
	Cosmo cosmo.Params
	// Box is the comoving box side in Mpc/h.
	Box float64
	// NG is the PM grid dimension (cells per side); must be a power of two
	// for the FFT.
	NG int
	// P holds the particles.
	P *Particles
	// A is the current scale factor.
	A float64

	// Sched pins the integration plan of the current Run and StepIndex the
	// progress through it, so a checkpointed simulation resumes on exactly
	// the same step boundaries (see Schedule). Seed records the RNG seed
	// the initial conditions were drawn from: the generator's state is
	// fully consumed into the particle data by IC generation, so the seed
	// plus the particle arrays are the complete random state a restart
	// needs (checkpoints carry both).
	Sched     Schedule
	StepIndex int
	Seed      int64

	// scratch
	rho          *grid.Scalar
	phi          *grid.Scalar
	gx, gy, gz   *grid.Scalar
	cube         *fft.Cube
	forcesACache float64
	forcesValid  bool
}

// NewSimulation prepares a simulation over the given particles starting at
// scale factor a0.
func NewSimulation(p cosmo.Params, box float64, ng int, particles *Particles, a0 float64) (*Simulation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if box <= 0 {
		return nil, fmt.Errorf("nbody: box size %g must be positive", box)
	}
	if !fft.IsPow2(ng) {
		return nil, fmt.Errorf("nbody: grid dimension %d must be a power of two", ng)
	}
	// Allow a hair past a=1: accumulated floating-point drift of a full
	// run's steps can land at 1+ulp, and restarts from such a state are
	// legitimate.
	if a0 <= 0 || a0 > 1.001 {
		return nil, fmt.Errorf("nbody: initial scale factor %g out of (0, 1]", a0)
	}
	if err := particles.Validate(); err != nil {
		return nil, err
	}
	s := &Simulation{Cosmo: p, Box: box, NG: ng, P: particles, A: a0}
	var err error
	for _, g := range []**grid.Scalar{&s.rho, &s.phi, &s.gx, &s.gy, &s.gz} {
		if *g, err = grid.NewScalar(ng, box); err != nil {
			return nil, err
		}
	}
	if s.cube, err = fft.NewCube(ng); err != nil {
		return nil, err
	}
	return s, nil
}

// Redshift returns the current redshift.
func (s *Simulation) Redshift() float64 { return cosmo.Redshift(s.A) }

// computeForces lays the particles onto the grid with CIC, solves the
// Poisson equation in k-space, differentiates the potential, and leaves the
// acceleration components on gx/gy/gz ready for CIC interpolation back to
// the particles. This is the HACC long-range (PM) force path.
func (s *Simulation) computeForces() error {
	if s.forcesValid && s.forcesACache == s.A {
		return nil
	}
	// Density contrast.
	s.rho.Fill(0)
	for i := 0; i < s.P.N(); i++ {
		s.rho.DepositCIC(s.P.X[i], s.P.Y[i], s.P.Z[i], 1)
	}
	if err := s.rho.ToDensityContrast(); err != nil {
		return err
	}
	// Poisson solve: phi(k) = -(3/2 Ωm/a) delta(k) / k².
	for i, v := range s.rho.Data {
		s.cube.Data[i] = complex(v, 0)
	}
	if err := s.cube.Forward3D(); err != nil {
		return err
	}
	prefactor := 1.5 * s.Cosmo.OmegaM / s.A
	s.cube.SolvePoisson(s.Box, prefactor)
	if err := s.cube.Inverse3D(); err != nil {
		return err
	}
	for i := range s.phi.Data {
		s.phi.Data[i] = real(s.cube.Data[i])
	}
	// Acceleration = -grad phi.
	if err := s.phi.Gradient(0, s.gx); err != nil {
		return err
	}
	if err := s.phi.Gradient(1, s.gy); err != nil {
		return err
	}
	if err := s.phi.Gradient(2, s.gz); err != nil {
		return err
	}
	for i := range s.gx.Data {
		s.gx.Data[i] = -s.gx.Data[i]
		s.gy.Data[i] = -s.gy.Data[i]
		s.gz.Data[i] = -s.gz.Data[i]
	}
	s.forcesValid = true
	s.forcesACache = s.A
	return nil
}

// AccelAt interpolates the current acceleration field to a position. The
// force field must be current (Step keeps it so); callers outside Step
// should not rely on it.
func (s *Simulation) AccelAt(x, y, z float64) (ax, ay, az float64) {
	return grid.InterpolateCIC3(s.gx, s.gy, s.gz, x, y, z)
}

// Step advances the simulation by da with one KDK leapfrog step.
func (s *Simulation) Step(da float64) error {
	if da <= 0 {
		return fmt.Errorf("nbody: step da=%g must be positive", da)
	}
	if err := s.computeForces(); err != nil {
		return err
	}
	half := da / 2
	// Kick (half step) at current a.
	kick := half / (s.A * s.Cosmo.E(s.A))
	p := s.P
	for i := 0; i < p.N(); i++ {
		ax, ay, az := s.AccelAt(p.X[i], p.Y[i], p.Z[i])
		p.VX[i] += ax * kick
		p.VY[i] += ay * kick
		p.VZ[i] += az * kick
	}
	// Drift (full step) at midpoint a.
	am := s.A + half
	drift := da / (am * am * am * s.Cosmo.E(am))
	for i := 0; i < p.N(); i++ {
		p.X[i] = periodic.Wrap(p.X[i]+p.VX[i]*drift, s.Box)
		p.Y[i] = periodic.Wrap(p.Y[i]+p.VY[i]*drift, s.Box)
		p.Z[i] = periodic.Wrap(p.Z[i]+p.VZ[i]*drift, s.Box)
	}
	// Kick (half step) at new a with fresh forces.
	s.A += da
	s.forcesValid = false
	if err := s.computeForces(); err != nil {
		return err
	}
	kick = half / (s.A * s.Cosmo.E(s.A))
	for i := 0; i < p.N(); i++ {
		ax, ay, az := s.AccelAt(p.X[i], p.Y[i], p.Z[i])
		p.VX[i] += ax * kick
		p.VY[i] += ay * kick
		p.VZ[i] += az * kick
	}
	return nil
}

// Schedule is the integration plan of one Run: the scale-factor interval
// and total step count. The step size is always derived as
// (AEnd-A0)/TotalSteps from these pinned endpoints — never from the
// current scale factor — so a run restarted from a checkpoint takes
// bit-identical steps to the uninterrupted original: run 0→N equals
// run 0→k plus restart k→N exactly, down to the last ulp.
type Schedule struct {
	// A0 and AEnd bound the integration in scale factor.
	A0, AEnd float64
	// TotalSteps is the number of equal steps covering [A0, AEnd].
	TotalSteps int
}

// Validate reports schedule construction errors.
func (sc Schedule) Validate() error {
	if sc.TotalSteps <= 0 {
		return fmt.Errorf("nbody: schedule steps %d must be positive", sc.TotalSteps)
	}
	if sc.AEnd <= sc.A0 {
		return fmt.Errorf("nbody: schedule aEnd=%g must exceed a0=%g", sc.AEnd, sc.A0)
	}
	return nil
}

// Run advances from the current scale factor to aEnd in nSteps equal steps,
// invoking cb (if non-nil) after every step with the 1-based step number.
// cb is the hook CosmoTools attaches to: it is called inside the main
// physics loop exactly as the paper's in-situ framework is (§3.1). Run
// pins the schedule and resets step progress; a simulation loaded from a
// checkpoint continues its original schedule with Resume instead.
func (s *Simulation) Run(aEnd float64, nSteps int, cb func(step int) error) error {
	s.Sched = Schedule{A0: s.A, AEnd: aEnd, TotalSteps: nSteps}
	s.StepIndex = 0
	return s.resume(cb)
}

// Resume continues the pinned schedule from the current StepIndex — the
// restart path for checkpointed runs. cb receives absolute step numbers
// (StepIndex+1 .. TotalSteps), so per-step output naming continues where
// the original run left off.
func (s *Simulation) Resume(cb func(step int) error) error {
	if err := s.Sched.Validate(); err != nil {
		return err
	}
	if s.StepIndex >= s.Sched.TotalSteps {
		return nil // schedule already complete
	}
	return s.resume(cb)
}

func (s *Simulation) resume(cb func(step int) error) error {
	if err := s.Sched.Validate(); err != nil {
		return err
	}
	da := (s.Sched.AEnd - s.Sched.A0) / float64(s.Sched.TotalSteps)
	for s.StepIndex < s.Sched.TotalSteps {
		if err := s.Step(da); err != nil {
			return err
		}
		s.StepIndex++
		if cb != nil {
			if err := cb(s.StepIndex); err != nil {
				return err
			}
		}
	}
	return nil
}

// DensityContrast deposits the current particles and returns the density
// contrast grid (a copy, safe to retain).
func (s *Simulation) DensityContrast() (*grid.Scalar, error) {
	g, err := grid.NewScalar(s.NG, s.Box)
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.P.N(); i++ {
		g.DepositCIC(s.P.X[i], s.P.Y[i], s.P.Z[i], 1)
	}
	if err := g.ToDensityContrast(); err != nil {
		return nil, err
	}
	return g, nil
}
