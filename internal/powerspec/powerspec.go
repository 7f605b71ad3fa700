// Package powerspec measures the matter density fluctuation power spectrum
// of a particle distribution.
//
// This is the paper's canonical example of an analysis task that belongs
// in-situ (§1): "This calculation requires a density estimation on a
// regular grid via, e.g., a Cloud-In-Cell (CIC) algorithm and very large
// FFTs. Both of the algorithms are efficiently parallelizable ... the
// determination of the power spectrum takes only a few minutes, a small
// fraction of the computational time required for a single time step."
// The measurement here is the standard estimator: CIC density contrast,
// 3-D FFT, and |delta(k)|² · V / N⁶ averaged in spherical k-bins.
package powerspec

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/nbody"
)

// Result is a binned power spectrum: P(k) against the mean wave number of
// each bin, with the mode count per bin for error estimation.
type Result struct {
	K     []float64 // mean |k| per bin, h/Mpc
	P     []float64 // power, (Mpc/h)³
	Modes []int     // contributing Fourier modes per bin
}

// Measure computes the power spectrum of the particles on an ng³ grid
// (power of two) over nBins linear bins in |k| between the fundamental mode
// and the Nyquist frequency.
func Measure(p *nbody.Particles, box float64, ng, nBins int) (*Result, error) {
	return new(Meter).Measure(p, box, ng, nBins)
}

// Check returns the error Measure gives for an ng³ grid and nBins bins
// whatever the particles, or nil.
func Check(ng, nBins int) error {
	switch {
	case nBins <= 0:
		return fmt.Errorf("powerspec: nBins=%d must be positive", nBins)
	case ng <= 0:
		return fmt.Errorf("grid: dimension %d must be positive", ng)
	case !fft.IsPow2(ng):
		return fmt.Errorf("fft: cube dimension %d is not a power of two", ng)
	}
	return nil
}

// Meter measures power spectra as Measure does, keeping its deposit grid
// and FFT cube across calls until ng or box changes. The zero Meter is
// ready to use; it is not safe for concurrent use.
type Meter struct {
	g    *grid.Scalar
	cube *fft.Cube
}

// Measure is the package Measure on m's grid and cube.
func (m *Meter) Measure(p *nbody.Particles, box float64, ng, nBins int) (*Result, error) {
	if err := Check(ng, nBins); err != nil {
		return nil, err
	}
	if m.g == nil || m.g.N != ng || m.g.BoxSize != box {
		g, err := grid.NewScalar(ng, box)
		if err != nil {
			return nil, err
		}
		cube, err := fft.NewCube(ng)
		if err != nil {
			return nil, err
		}
		m.g, m.cube = g, cube
	}
	// AssignCIC clears every plane it deposits into, and spectrum
	// overwrites the whole cube: nothing of the last call survives.
	m.g.AssignCIC(p.X, p.Y, p.Z)
	if err := m.g.ToDensityContrast(); err != nil {
		return nil, err
	}
	return spectrum(m.g, m.cube, nBins)
}

// spectrum transforms g in cube, which it overwrites, and bins the power.
func spectrum(g *grid.Scalar, cube *fft.Cube, nBins int) (*Result, error) {
	ng := g.N
	for i, v := range g.Data {
		cube.Data[i] = complex(v, 0)
	}
	if err := cube.Forward3D(); err != nil {
		return nil, err
	}
	box := g.BoxSize
	vol := box * box * box
	n3 := float64(ng * ng * ng)
	norm := vol / (n3 * n3)

	kFund := 2 * math.Pi / box
	kNyq := kFund * float64(ng) / 2
	binW := (kNyq - kFund) / float64(nBins)

	res := &Result{K: make([]float64, nBins), P: make([]float64, nBins), Modes: make([]int, nBins)}
	kSum := make([]float64, nBins)
	for i := 0; i < ng; i++ {
		kx := fft.WaveNumber(i, ng, box)
		for j := 0; j < ng; j++ {
			ky := fft.WaveNumber(j, ng, box)
			for k := 0; k < ng; k++ {
				kz := fft.WaveNumber(k, ng, box)
				kk := math.Sqrt(kx*kx + ky*ky + kz*kz)
				if kk < kFund || kk >= kNyq {
					continue
				}
				bin := int((kk - kFund) / binW)
				if bin >= nBins {
					bin = nBins - 1
				}
				c := cube.At(i, j, k)
				res.P[bin] += (real(c)*real(c) + imag(c)*imag(c)) * norm
				kSum[bin] += kk
				res.Modes[bin]++
			}
		}
	}
	for b := 0; b < nBins; b++ {
		if res.Modes[b] > 0 {
			res.P[b] /= float64(res.Modes[b])
			res.K[b] = kSum[b] / float64(res.Modes[b])
		}
	}
	return res, nil
}

// MeasureParallel computes the power spectrum of a distributed particle
// set: each rank deposits its local particles onto a private grid, the
// grids are summed with an all-reduce, and every rank then evaluates the
// same FFT and binning — the structure of the paper's in-situ power
// spectrum, which ran across the full Titan partition at every analysis
// step (§1). All ranks return the identical result.
func MeasureParallel(c *mpi.Comm, local *nbody.Particles, box float64, ng, nBins int) (*Result, error) {
	if err := Check(ng, nBins); err != nil {
		return nil, err
	}
	g, err := grid.NewScalar(ng, box)
	if err != nil {
		return nil, err
	}
	g.AssignCIC(local.X, local.Y, local.Z)
	// Sum the per-rank grids; every rank receives the global density.
	all := c.AllGather(g.Data)
	global, err := grid.NewScalar(ng, box)
	if err != nil {
		return nil, err
	}
	for _, payload := range all {
		for i, v := range payload.([]float64) {
			global.Data[i] += v
		}
	}
	if err := global.ToDensityContrast(); err != nil {
		return nil, err
	}
	cube, err := fft.NewCube(ng)
	if err != nil {
		return nil, err
	}
	return spectrum(global, cube, nBins)
}
