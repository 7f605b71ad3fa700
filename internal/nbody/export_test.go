package nbody

import "repro/internal/grid"

// Lattice opens the package's particle lattice to the tests in package
// nbody_test, which can reach ic and gio.
var Lattice = lattice

// ReferenceStep is Step as it was before kicks kept their accelerations:
// every kick, the opening one included, interpolates the force grids
// afresh. Step must equal it bit for bit.
func (s *Simulation) ReferenceStep(da float64) error {
	if err := s.computeForces(); err != nil {
		return err
	}
	half := da / 2
	s.coef = half / (s.A * s.Cosmo.E(s.A))
	s.par.Run(elements, s, s.P.N(), (*Simulation).referenceKick)
	am := s.A + half
	s.coef = da / (am * am * am * s.Cosmo.E(am))
	s.par.Run(elements, s, s.P.N(), (*Simulation).drift)
	s.A += da
	s.forcesValid = false
	if err := s.computeForces(); err != nil {
		return err
	}
	s.coef = half / (s.A * s.Cosmo.E(s.A))
	s.par.Run(elements, s, s.P.N(), (*Simulation).referenceKick)
	return nil
}

func (s *Simulation) referenceKick(lo, hi int) {
	p, kick := s.P, s.coef
	for i := lo; i < hi; i++ {
		ax, ay, az := grid.InterpolateCIC3(s.gx, s.gy, s.gz, p.X[i], p.Y[i], p.Z[i])
		p.VX[i] += ax * kick
		p.VY[i] += ay * kick
		p.VZ[i] += az * kick
	}
}
