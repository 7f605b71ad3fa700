package nbody_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/gio"
	"repro/internal/ic"
	"repro/internal/nbody"
	"repro/internal/periodic"
	"repro/internal/powerspec"
)

const diffNP, diffBox = 16, 32.0

// perturbedLattice is a 16³ lattice displaced by 0.3 Mpc/h noise.
func perturbedLattice(*testing.T) (*nbody.Particles, float64) {
	p := nbody.Lattice(diffNP, diffBox)
	rng := rand.New(rand.NewSource(11))
	for i := range p.X {
		p.X[i] = periodic.Wrap(p.X[i]+rng.NormFloat64()*0.3, diffBox)
		p.Y[i] = periodic.Wrap(p.Y[i]+rng.NormFloat64()*0.3, diffBox)
		p.Z[i] = periodic.Wrap(p.Z[i]+rng.NormFloat64()*0.3, diffBox)
	}
	return p, 0.3
}

// gaussianIC is a 16³ Zel'dovich start at z = 50.
func gaussianIC(t *testing.T) (*nbody.Particles, float64) {
	t.Helper()
	p, a0, err := ic.Generate(cosmo.Default(), ic.Options{NP: diffNP, Box: diffBox, ZInit: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return p, a0
}

func newSim(t *testing.T, p *nbody.Particles, a0 float64) *nbody.Simulation {
	t.Helper()
	s, err := nbody.NewSimulation(cosmo.Default(), diffBox, diffNP, p, a0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// firstDiff returns the first particle whose position or momentum differs
// in any bit between a and b, or -1.
func firstDiff(a, b *nbody.Particles) int {
	same := func(x, y []float64, i int) bool { return math.Float64bits(x[i]) == math.Float64bits(y[i]) }
	for i := range a.X {
		if !same(a.X, b.X, i) || !same(a.Y, b.Y, i) || !same(a.Z, b.Z, i) ||
			!same(a.VX, b.VX, i) || !same(a.VY, b.VY, i) || !same(a.VZ, b.VZ, i) {
			return i
		}
	}
	return -1
}

// Step reuses the closing kick's accelerations in the next opening kick.
// Through a run whose callback only reads the particles, as in-situ
// analysis does, it must match the reference step, which interpolates in
// every kick, bit for bit after every step.
func TestStepMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(*testing.T) (*nbody.Particles, float64)
		aEnd  float64
		steps int
	}{
		{"perturbed lattice", perturbedLattice, 0.6, 12},
		{"ic.Generate", gaussianIC, 1, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, a0 := tc.start(t)
			sim, ref := newSim(t, p, a0), newSim(t, nbody.Concat(p), a0)
			da := (tc.aEnd - a0) / float64(tc.steps)
			err := sim.Run(tc.aEnd, tc.steps, func(step int) error {
				if err := ref.ReferenceStep(da); err != nil {
					return err
				}
				if i := firstDiff(sim.P, ref.P); i >= 0 || sim.A != ref.A {
					return fmt.Errorf("step %d: particle %d (a %v, reference %v) differs from the reference step", step, i, sim.A, ref.A)
				}
				_, err := powerspec.Measure(sim.P, sim.Box, sim.NG, 8)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A run checkpointed at step 5 and resumed from the checkpoint starts cold:
// its first opening kick has no stored accelerations and interpolates.
// It must end bit for bit where the uninterrupted run ends.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	const steps, at = 12, 5
	p, a0 := gaussianIC(t)
	full, cut := newSim(t, p, a0), newSim(t, nbody.Concat(p), a0)
	if err := full.Run(1, steps, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	errCut := errors.New("cut")
	err := cut.Run(1, steps, func(step int) error {
		if step < at {
			return nil
		}
		if err := gio.WriteCheckpoint(&buf, cut); err != nil {
			return err
		}
		return errCut
	})
	if !errors.Is(err, errCut) {
		t.Fatalf("run to the checkpoint: %v", err)
	}
	restored, err := gio.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Resume(nil); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(restored.P, full.P); i >= 0 || restored.A != full.A {
		t.Fatalf("resumed run differs from the uninterrupted one at particle %d (a %v vs %v)", i, restored.A, full.A)
	}
}
