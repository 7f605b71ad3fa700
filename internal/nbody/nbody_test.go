package nbody

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/grid"
	"repro/internal/periodic"
)

func lattice(np int, box float64) *Particles {
	p := NewParticles(np * np * np)
	dq := box / float64(np)
	idx := 0
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			for k := 0; k < np; k++ {
				p.X[idx] = (float64(i) + 0.5) * dq
				p.Y[idx] = (float64(j) + 0.5) * dq
				p.Z[idx] = (float64(k) + 0.5) * dq
				p.Tag[idx] = int64(idx)
				idx++
			}
		}
	}
	return p
}

// densityContrast deposits s's particles on its PM grid and returns their
// density contrast.
func densityContrast(t *testing.T, s *Simulation) *grid.Scalar {
	t.Helper()
	g, err := grid.NewScalar(s.NG, s.Box)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignCIC(s.P.X, s.P.Y, s.P.Z)
	if err := g.ToDensityContrast(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParticlesAppendSelectClone(t *testing.T) {
	p := NewParticles(0)
	p.Append(1, 2, 3, 4, 5, 6, 7)
	p.Append(10, 20, 30, 40, 50, 60, 70)
	if p.N() != 2 {
		t.Fatalf("N = %d", p.N())
	}
	q := p.Select([]int{1})
	if q.N() != 1 || q.X[0] != 10 || q.Tag[0] != 70 {
		t.Errorf("select = %+v", q)
	}
	c := Concat(p) // a one-part Concat is a deep copy
	c.X[0] = 99
	if p.X[0] == 99 {
		t.Error("clone aliases original")
	}
	r := NewParticles(0)
	r.AppendFrom(p, 0)
	if r.X[0] != 1 || r.Tag[0] != 7 {
		t.Errorf("AppendFrom = %+v", r)
	}
}

// Concat must equal appending every particle of every part in order, for
// any number of parts of any size.
func TestConcatMatchesAppendFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		parts := make([]*Particles, trial%5) // zero parts included
		want := NewParticles(0)
		for k := range parts {
			parts[k] = NewParticles(0)
			for i := rng.Intn(4) * rng.Intn(20); i > 0; i-- { // often empty
				parts[k].Append(rng.Float64(), rng.Float64(), rng.Float64(),
					rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.Int63())
			}
			for i := 0; i < parts[k].N(); i++ {
				want.AppendFrom(parts[k], i)
			}
		}
		got := Concat(parts...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Concat of %d parts holds %d particles, the AppendFrom loop %d", trial, len(parts), got.N(), want.N())
		}
		if got.N() > 0 && cap(got.X) != got.N() {
			t.Fatalf("trial %d: %d particles in room for %d; Concat allocates exactly", trial, got.N(), cap(got.X))
		}
		if len(parts) > 0 && parts[0].N() > 0 {
			got.X[0], got.Tag[0] = -1, -1
			if parts[0].X[0] == -1 || parts[0].Tag[0] == -1 {
				t.Fatalf("trial %d: Concat aliases its first part", trial)
			}
		}
	}
}

func TestParticlesValidate(t *testing.T) {
	p := NewParticles(2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.VX = p.VX[:1]
	if err := p.Validate(); err == nil {
		t.Error("expected error for ragged arrays")
	}
}

// wrapPeriodic folds all positions into [0, box).
func wrapPeriodic(p *Particles, box float64) {
	for i := range p.X {
		p.X[i] = periodic.Wrap(p.X[i], box)
		p.Y[i] = periodic.Wrap(p.Y[i], box)
		p.Z[i] = periodic.Wrap(p.Z[i], box)
	}
}

func TestNewSimulationValidation(t *testing.T) {
	c := cosmo.Default()
	p := lattice(4, 10)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"bad box", func() error { _, err := NewSimulation(c, -1, 8, p, 0.1); return err }},
		{"bad grid", func() error { _, err := NewSimulation(c, 10, 7, p, 0.1); return err }},
		{"bad a0", func() error { _, err := NewSimulation(c, 10, 8, p, 0); return err }},
		{"bad cosmo", func() error { _, err := NewSimulation(cosmo.Params{}, 10, 8, p, 0.1); return err }},
	}
	for _, tc := range cases {
		if tc.fn() == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	s, err := NewSimulation(c, 10, 8, p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Redshift()-9) > 1e-12 {
		t.Errorf("redshift = %v", s.Redshift())
	}
}

// A uniform lattice exerts no net PM force: after stepping, velocities stay
// (numerically) tiny and the lattice barely moves.
func TestUniformLatticeIsEquilibrium(t *testing.T) {
	c := cosmo.Default()
	np := 8
	box := 20.0
	p := lattice(np, box)
	s, err := NewSimulation(c, box, np, p, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(0.01); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.N(); i++ {
		v := math.Abs(p.VX[i]) + math.Abs(p.VY[i]) + math.Abs(p.VZ[i])
		if v > 1e-8 {
			t.Fatalf("lattice particle %d acquired velocity %v", i, v)
		}
	}
}

// An overdense point cluster should attract a nearby test particle.
func TestOverdensityAttracts(t *testing.T) {
	c := cosmo.Default()
	np := 8
	box := 20.0
	p := lattice(np, box)
	// Stack extra particles at the box centre to create an overdensity.
	for i := 0; i < 200; i++ {
		p.Append(10, 10, 10, 0, 0, 0, int64(100000+i))
	}
	// Test particle offset along +x from the clump.
	p.Append(13, 10, 10, 0, 0, 0, 999999)
	ti := p.N() - 1
	s, err := NewSimulation(c, box, np, p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(0.01); err != nil {
		t.Fatal(err)
	}
	if p.VX[ti] >= 0 {
		t.Errorf("test particle vx = %v, want negative (attraction toward clump)", p.VX[ti])
	}
	if math.Abs(p.VY[ti]) > math.Abs(p.VX[ti])/2 {
		t.Errorf("transverse velocity %v too large vs %v", p.VY[ti], p.VX[ti])
	}
}

// A step on two workers reuses every grid, closure and dispatch: it may
// allocate no more than the 2 times a step did when it ran on one core.
func TestStepAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	np, box := 16, 20.0
	p := lattice(np, box)
	rng := rand.New(rand.NewSource(26))
	for i := range p.X {
		p.X[i] += rng.NormFloat64() * 0.3
	}
	s, err := NewSimulation(cosmo.Default(), box, np, p, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.Step(1e-4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Step allocates %v times, want <= 2", allocs)
	}
}

func TestStepRejectsNonPositiveDa(t *testing.T) {
	c := cosmo.Default()
	p := lattice(4, 10)
	s, _ := NewSimulation(c, 10, 8, p, 0.1)
	if err := s.Step(0); err == nil {
		t.Error("expected error")
	}
	if err := s.Step(-0.1); err == nil {
		t.Error("expected error")
	}
}

func TestRunInvokesCallbackEachStep(t *testing.T) {
	c := cosmo.Default()
	p := lattice(4, 10)
	s, _ := NewSimulation(c, 10, 8, p, 0.2)
	var steps []int
	err := s.Run(0.3, 5, func(step int) error {
		steps = append(steps, step)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 5 || steps[0] != 1 || steps[4] != 5 {
		t.Errorf("steps = %v", steps)
	}
	if math.Abs(s.A-0.3) > 1e-12 {
		t.Errorf("final a = %v", s.A)
	}
}

func TestRunValidation(t *testing.T) {
	c := cosmo.Default()
	p := lattice(4, 10)
	s, _ := NewSimulation(c, 10, 8, p, 0.5)
	if err := s.Run(0.4, 2, nil); err == nil {
		t.Error("expected error for aEnd < a")
	}
	if err := s.Run(0.6, 0, nil); err == nil {
		t.Error("expected error for zero steps")
	}
}

func TestDensityContrastMeanZero(t *testing.T) {
	c := cosmo.Default()
	p := lattice(8, 10)
	s, _ := NewSimulation(c, 10, 8, p, 0.5)
	g := densityContrast(t, s)
	if math.Abs(g.Mean()) > 1e-10 {
		t.Errorf("mean delta = %v", g.Mean())
	}
}

// The simulation must track linear growth: starting from small
// fluctuations, the density contrast should grow proportionally to D(a)
// while still linear, and exceed linear growth in the collapsed regime.
// This is the regression test for the kick/drift scale-factor equations.
func TestGrowthTracksLinearTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("evolution test")
	}
	c := cosmo.Default()
	// Small sinusoidal perturbation on a lattice: exactly linear physics.
	np := 16
	box := 32.0
	p := lattice(np, box)
	amp := 0.05 // displacement amplitude, Mpc/h
	a0 := 0.1
	f0 := c.GrowthRate(a0)
	e0 := c.E(a0)
	k := 2 * math.Pi / box
	for i := 0; i < p.N(); i++ {
		psi := amp * math.Sin(k*p.X[i])
		p.X[i] += psi // displacement already includes D(a0)
		p.VX[i] = f0 * psi * a0 * a0 * e0
	}
	wrapPeriodic(p, box)
	s, err := NewSimulation(c, box, np, p, a0)
	if err != nil {
		t.Fatal(err)
	}
	rms := func() float64 {
		g := densityContrast(t, s)
		sum := 0.0
		for _, v := range g.Data {
			sum += v * v
		}
		return math.Sqrt(sum / float64(len(g.Data)))
	}
	rms0 := rms()
	if err := s.Run(0.2, 50, nil); err != nil {
		t.Fatal(err)
	}
	got := rms() / rms0
	want := c.GrowthFactor(0.2) / c.GrowthFactor(a0)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("growth a=0.1->0.2: rms grew %vx, linear theory says %vx", got, want)
	}
}

func TestStepConservesMomentum(t *testing.T) {
	c := cosmo.Default()
	np := 16
	box := 32.0
	p := lattice(np, box)
	// Perturb the lattice so forces are nonzero.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < p.N(); i++ {
		p.X[i] += rng.NormFloat64() * 0.3
		p.Y[i] += rng.NormFloat64() * 0.3
		p.Z[i] += rng.NormFloat64() * 0.3
	}
	wrapPeriodic(p, box)
	s, err := NewSimulation(c, box, np, p, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sumMomentum := func() (float64, float64, float64) {
		var px, py, pz float64
		for i := 0; i < p.N(); i++ {
			px += p.VX[i]
			py += p.VY[i]
			pz += p.VZ[i]
		}
		return px, py, pz
	}
	// Scale of the individual kicks, for a meaningful tolerance.
	if err := s.Step(0.01); err != nil {
		t.Fatal(err)
	}
	kickScale := 0.0
	for i := 0; i < p.N(); i++ {
		kickScale += math.Abs(p.VX[i]) + math.Abs(p.VY[i]) + math.Abs(p.VZ[i])
	}
	px, py, pz := sumMomentum()
	drift := math.Abs(px) + math.Abs(py) + math.Abs(pz)
	if drift > 1e-6*kickScale {
		t.Errorf("net momentum %.3g vs kick scale %.3g", drift, kickScale)
	}
}
