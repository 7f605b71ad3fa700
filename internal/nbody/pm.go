package nbody

import (
	"fmt"

	"repro/internal/cosmo"
	"repro/internal/dparallel"
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
//
// Between steps, only Step may change P or A: the next step reuses the
// force grids and accelerations the last one left for those positions.
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
	// acc holds the last interpolated accelerations, x, y, z per particle;
	// accValid: a closing kick stored them and no force recompute followed.
	acc      []float64
	accValid bool

	// par runs the per-particle and per-cell passes of a step on every
	// core; coef is the kick or drift factor of the pass in flight.
	par  dparallel.Runner[Simulation]
	coef float64
}

// elements runs per-particle and per-cell passes on GOMAXPROCS workers.
var elements dparallel.Backend = dparallel.Parallel{}

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
	s := &Simulation{Cosmo: p, Box: box, NG: ng, P: particles, A: a0, acc: make([]float64, 3*particles.N())}
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
	s.accValid = false
	// Density contrast.
	s.rho.AssignCIC(s.P.X, s.P.Y, s.P.Z)
	if err := s.rho.ToDensityContrast(); err != nil {
		return err
	}
	// Poisson solve: phi(k) = -(3/2 Ωm/a) delta(k) / k².
	s.par.Run(elements, s, len(s.rho.Data), (*Simulation).toCube)
	if err := s.cube.Forward3D(); err != nil {
		return err
	}
	prefactor := 1.5 * s.Cosmo.OmegaM / s.A
	s.cube.SolvePoisson(s.Box, prefactor)
	if err := s.cube.Inverse3D(); err != nil {
		return err
	}
	s.par.Run(elements, s, len(s.phi.Data), (*Simulation).fromCube)
	// Acceleration = -grad phi.
	if err := s.phi.NegGradient(s.gx, s.gy, s.gz); err != nil {
		return err
	}
	s.forcesValid = true
	s.forcesACache = s.A
	return nil
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
	// Kick (half step) at current a, from the stored accelerations if valid.
	s.coef = half / (s.A * s.Cosmo.E(s.A))
	if s.accValid {
		s.par.Run(elements, s, s.P.N(), (*Simulation).kickStored)
	} else {
		s.par.Run(elements, s, s.P.N(), (*Simulation).kick)
	}
	// Drift (full step) at midpoint a.
	am := s.A + half
	s.coef = da / (am * am * am * s.Cosmo.E(am))
	s.par.Run(elements, s, s.P.N(), (*Simulation).drift)
	// Kick (half step) at new a with fresh forces.
	s.A += da
	s.forcesValid = false
	if err := s.computeForces(); err != nil {
		return err
	}
	s.coef = half / (s.A * s.Cosmo.E(s.A))
	s.par.Run(elements, s, s.P.N(), (*Simulation).kick)
	s.accValid = true
	return nil
}

// toCube copies cells [lo, hi) of the density contrast into the cube.
func (s *Simulation) toCube(lo, hi int) {
	for i, v := range s.rho.Data[lo:hi] {
		s.cube.Data[lo+i] = complex(v, 0)
	}
}

// fromCube copies the real part of cells [lo, hi) of the cube to phi.
func (s *Simulation) fromCube(lo, hi int) {
	for i, v := range s.cube.Data[lo:hi] {
		s.phi.Data[lo+i] = real(v)
	}
}

// kick interpolates the accelerations of particles [lo, hi) from the
// force grids, stores them in acc and adds them times coef to the momenta.
func (s *Simulation) kick(lo, hi int) {
	p, kick := s.P, s.coef
	for i := lo; i < hi; i++ {
		ax, ay, az := grid.InterpolateCIC3(s.gx, s.gy, s.gz, p.X[i], p.Y[i], p.Z[i])
		s.acc[3*i], s.acc[3*i+1], s.acc[3*i+2] = ax, ay, az
		p.VX[i] += ax * kick
		p.VY[i] += ay * kick
		p.VZ[i] += az * kick
	}
}

// kickStored adds acc times coef to the momenta of particles [lo, hi).
func (s *Simulation) kickStored(lo, hi int) {
	p, kick, acc := s.P, s.coef, s.acc
	for i := lo; i < hi; i++ {
		p.VX[i] += acc[3*i] * kick
		p.VY[i] += acc[3*i+1] * kick
		p.VZ[i] += acc[3*i+2] * kick
	}
}

// drift moves particles [lo, hi) by their momenta times coef, wrapped
// into the box.
func (s *Simulation) drift(lo, hi int) {
	p, drift := s.P, s.coef
	for i := lo; i < hi; i++ {
		p.X[i] = periodic.Wrap(p.X[i]+p.VX[i]*drift, s.Box)
		p.Y[i] = periodic.Wrap(p.Y[i]+p.VY[i]*drift, s.Box)
		p.Z[i] = periodic.Wrap(p.Z[i]+p.VZ[i]*drift, s.Box)
	}
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
