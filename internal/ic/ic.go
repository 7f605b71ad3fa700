// Package ic generates cosmological initial conditions: a Gaussian random
// density field drawn from the linear ΛCDM power spectrum, converted to
// particle positions and momenta with the Zel'dovich approximation.
//
// The Q Continuum simulation the paper analyzes "started at z = 200" (§4.1)
// from exactly this kind of first-order Lagrangian perturbation theory
// setup. The construction here follows the standard recipe: white Gaussian
// noise on the grid, shaped in Fourier space by sqrt(P(k)), displacement
// field psi(k) = i k delta(k)/k², particles displaced off a uniform lattice
// by D(a) psi with momenta f D a² E(a) psi.
package ic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cosmo"
	"repro/internal/fft"
	"repro/internal/nbody"
	"repro/internal/periodic"
)

// Options configures initial-condition generation.
type Options struct {
	// NP is the number of particles per dimension (NP³ total).
	NP int
	// Box is the comoving box side in Mpc/h.
	Box float64
	// ZInit is the starting redshift (the paper's runs start at z=200; small
	// test boxes typically use 50 or lower).
	ZInit float64
	// Seed seeds the Gaussian random field; runs with equal seeds are
	// bit-identical.
	Seed int64
}

// Validate reports option errors.
func (o Options) Validate() error {
	switch {
	case !fft.IsPow2(o.NP):
		return fmt.Errorf("ic: NP=%d must be a power of two", o.NP)
	case o.Box <= 0:
		return fmt.Errorf("ic: box=%g must be positive", o.Box)
	case o.ZInit <= 0:
		return fmt.Errorf("ic: zInit=%g must be positive", o.ZInit)
	}
	return nil
}

// GaussianField fills a cube with the Fourier modes of a Gaussian random
// density contrast field at z=0 whose measured power spectrum is P(k):
// real white noise is laid on the grid and shaped by sqrt(P(k) N³ / V).
// The returned cube is in k-space.
func GaussianField(p cosmo.Params, np int, box float64, seed int64) (*fft.Cube, error) {
	cube, err := fft.NewCube(np)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range cube.Data {
		cube.Data[i] = complex(rng.NormFloat64(), 0)
	}
	if err := cube.Forward3D(); err != nil {
		return nil, err
	}
	// |k| depends only on each axis's |FreqIndex| (WaveNumber(n-i) is exactly
	// -WaveNumber(i)): P(k) once per folded triple in 0..np/2; -1 marks k = 0.
	n3, vol, h := float64(np*np*np), box*box*box, np/2+1
	amps := make([]float64, h*h*h)
	for t := range amps {
		kx, ky, kz := fft.WaveNumber(t/(h*h), np, box), fft.WaveNumber(t/h%h, np, box), fft.WaveNumber(t%h, np, box)
		amps[t] = -1
		if kk := math.Sqrt(kx*kx + ky*ky + kz*kz); kk != 0 {
			amps[t] = math.Sqrt(p.PowerSpectrum(kk) * n3 / vol)
		}
	}
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			row := (min(i, np-i)*h + min(j, np-j)) * h
			for k := 0; k < np; k++ {
				idx := cube.Index(i, j, k)
				if amp := amps[row+min(k, np-k)]; amp < 0 {
					cube.Data[idx] = 0
				} else {
					cube.Data[idx] *= complex(amp, 0)
				}
			}
		}
	}
	return cube, nil
}

// displacementComponent converts delta(k) into one Cartesian component of
// the Zel'dovich displacement field psi(k) = i k_axis delta(k)/k² and
// returns it in real space.
func displacementComponent(deltaK *fft.Cube, box float64, axis int) ([]float64, error) {
	np := deltaK.N
	comp, err := fft.NewCube(np)
	if err != nil {
		return nil, err
	}
	for i := 0; i < np; i++ {
		kx := fft.WaveNumber(i, np, box)
		for j := 0; j < np; j++ {
			ky := fft.WaveNumber(j, np, box)
			for k := 0; k < np; k++ {
				kz := fft.WaveNumber(k, np, box)
				k2 := kx*kx + ky*ky + kz*kz
				idx := deltaK.Index(i, j, k)
				if k2 == 0 {
					comp.Data[idx] = 0
					continue
				}
				ka := [3]float64{kx, ky, kz}[axis]
				comp.Data[idx] = deltaK.Data[idx] * complex(0, ka/k2)
			}
		}
	}
	if err := comp.Inverse3D(); err != nil {
		return nil, err
	}
	out := make([]float64, len(comp.Data))
	for i, v := range comp.Data {
		out[i] = real(v)
	}
	return out, nil
}

// Generate builds Zel'dovich initial conditions and returns the particles
// together with the starting scale factor.
func Generate(p cosmo.Params, o Options) (*nbody.Particles, float64, error) {
	if err := o.Validate(); err != nil {
		return nil, 0, err
	}
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	deltaK, err := GaussianField(p, o.NP, o.Box, o.Seed)
	if err != nil {
		return nil, 0, err
	}
	var psi [3][]float64
	for axis := 0; axis < 3; axis++ {
		if psi[axis], err = displacementComponent(deltaK, o.Box, axis); err != nil {
			return nil, 0, err
		}
	}
	a := cosmo.ScaleFactor(o.ZInit)
	d := p.GrowthFactor(a)
	f := p.GrowthRate(a)
	e := p.E(a)
	velFactor := f * d * a * a * e

	np := o.NP
	parts := nbody.NewParticles(np * np * np)
	dq := o.Box / float64(np)
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			for k := 0; k < np; k++ {
				idx := (i*np+j)*np + k
				qx := (float64(i) + 0.5) * dq
				qy := (float64(j) + 0.5) * dq
				qz := (float64(k) + 0.5) * dq
				parts.X[idx] = periodic.Wrap(qx+d*psi[0][idx], o.Box)
				parts.Y[idx] = periodic.Wrap(qy+d*psi[1][idx], o.Box)
				parts.Z[idx] = periodic.Wrap(qz+d*psi[2][idx], o.Box)
				parts.VX[idx] = velFactor * psi[0][idx]
				parts.VY[idx] = velFactor * psi[1][idx]
				parts.VZ[idx] = velFactor * psi[2][idx]
				parts.Tag[idx] = int64(idx)
			}
		}
	}
	return parts, a, nil
}
