// Package grid provides the uniform grids and Cloud-In-Cell (CIC)
// operations shared by the particle-mesh gravity solver and the in-situ
// power-spectrum analysis.
//
// HACC "uses uniform grids for calculating long-range forces" (§3), and the
// paper's canonical efficient in-situ task — the density fluctuation power
// spectrum — "requires a density estimation on a regular grid via, e.g., a
// Cloud-In-Cell (CIC) algorithm" (§1). The CIC kernel here is the standard
// trilinear assignment: each particle's mass is shared among the eight grid
// cells surrounding it with weights proportional to the overlap of a
// cell-sized cloud centred on the particle.
package grid

import (
	"fmt"
	"math"

	"repro/internal/periodic"
)

// Scalar is a flattened n×n×n real-valued periodic field with cell (i,j,k)
// at i*n*n + j*n + k, covering a cubic box of physical side BoxSize.
type Scalar struct {
	N       int
	BoxSize float64
	Data    []float64
}

// NewScalar allocates an n³ field over a box of side boxSize.
func NewScalar(n int, boxSize float64) (*Scalar, error) {
	if n <= 0 {
		return nil, fmt.Errorf("grid: dimension %d must be positive", n)
	}
	if !(boxSize > 0 && boxSize <= math.MaxFloat64) {
		return nil, fmt.Errorf("grid: box size %g must be positive and finite", boxSize)
	}
	return &Scalar{N: n, BoxSize: boxSize, Data: make([]float64, n*n*n)}, nil
}

// CellSize returns the physical side length of one cell.
func (g *Scalar) CellSize() float64 { return g.BoxSize / float64(g.N) }

// Index returns the flat index of cell (i, j, k), already wrapped.
func (g *Scalar) Index(i, j, k int) int { return (i*g.N+j)*g.N + k }

// At returns the value in cell (i, j, k) with periodic wrapping.
func (g *Scalar) At(i, j, k int) float64 {
	return g.Data[g.Index(wrap(i, g.N), wrap(j, g.N), wrap(k, g.N))]
}

// Set assigns cell (i, j, k) with periodic wrapping.
func (g *Scalar) Set(i, j, k int, v float64) {
	g.Data[g.Index(wrap(i, g.N), wrap(j, g.N), wrap(k, g.N))] = v
}

// Fill sets every cell to v.
func (g *Scalar) Fill(v float64) {
	for i := range g.Data {
		g.Data[i] = v
	}
}

// Total returns the sum over all cells.
func (g *Scalar) Total() float64 {
	sum := 0.0
	for _, v := range g.Data {
		sum += v
	}
	return sum
}

// Mean returns the mean cell value.
func (g *Scalar) Mean() float64 { return g.Total() / float64(len(g.Data)) }

// wrap folds a cell index into [0, n); only one outside it pays for %.
func wrap(i, n int) int {
	if uint(i) < uint(n) {
		return i
	}
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// cicWeights returns x's two cell indices along one axis and writes their
// CIC weights to w; cell is n/l.
func cicWeights(x float64, n int, l, cell float64, w *[2]float64) (i0, i1 int) {
	// Shift by half a cell so cell centres sit at (i+0.5)*dx.
	u := periodic.Wrap(x, l)*cell - 0.5
	f := math.Floor(u)
	d := u - f
	w[0], w[1] = 1-d, d
	i0 = wrap(int(f), n)
	if i1 = i0 + 1; i1 == n {
		i1 = 0
	}
	return i0, i1
}

// stencil is the CIC footprint of a position: its 8 cells (corner c at x-bit
// c>>2, y-bit c>>1&1, z-bit c&1) and 2 weights per axis. Every use multiplies
// by wx, wy, wz in that order, so sharing a stencil changes no bit.
type stencil struct {
	idx        [8]int
	wx, wy, wz [2]float64
}

// set makes s the stencil of (x, y, z) on g (in place: no 112-byte copy).
func (s *stencil) set(g *Scalar, x, y, z float64) {
	n, l := g.N, g.BoxSize
	cell := float64(n) / l
	i0, i1 := cicWeights(x, n, l, cell, &s.wx)
	j0, j1 := cicWeights(y, n, l, cell, &s.wy)
	k0, k1 := cicWeights(z, n, l, cell, &s.wz)
	for c, i := range [2]int{i0, i1} {
		for d, j := range [2]int{j0, j1} {
			s.idx[4*c+2*d] = g.Index(i, j, k0)
			s.idx[4*c+2*d+1] = g.Index(i, j, k1)
		}
	}
}

// sum is the CIC-weighted sum of data over the stencil, corners in order.
func (s *stencil) sum(data []float64) float64 {
	v := data[s.idx[0]] * s.wx[0] * s.wy[0] * s.wz[0]
	for c := 1; c < 8; c++ {
		v += data[s.idx[c]] * s.wx[c>>2&1] * s.wy[c>>1&1] * s.wz[c&1]
	}
	return v
}

// DepositCIC adds mass m at position (x, y, z) using Cloud-In-Cell
// weighting. Positions outside the box are wrapped periodically.
func (g *Scalar) DepositCIC(x, y, z, m float64) {
	var s stencil
	s.set(g, x, y, z)
	// m·wx·wy is common to two corners: computed once, rounded the same.
	for a := 0; a < 2; a++ {
		ma := m * s.wx[a]
		for b := 0; b < 2; b++ {
			mab, c := ma*s.wy[b], 4*a+2*b
			g.Data[s.idx[c]] += mab * s.wz[0]
			g.Data[s.idx[c+1]] += mab * s.wz[1]
		}
	}
}

// InterpolateCIC reads the field at position (x, y, z) with the same CIC
// weighting used for deposits, guaranteeing momentum-conserving force
// interpolation when used with DepositCIC.
func (g *Scalar) InterpolateCIC(x, y, z float64) float64 {
	var s stencil
	s.set(g, x, y, z)
	return s.sum(g.Data)
}

// InterpolateCIC3 is a.InterpolateCIC, b.InterpolateCIC and
// c.InterpolateCIC at one position, computing the stencil once: the three
// components of a vector field. b and c must have a's N and BoxSize.
func InterpolateCIC3(a, b, c *Scalar, x, y, z float64) (va, vb, vc float64) {
	var s stencil
	s.set(a, x, y, z)
	return s.sum(a.Data), s.sum(b.Data), s.sum(c.Data)
}

// ToDensityContrast converts a mass grid into the dimensionless density
// contrast delta = rho/rhoMean - 1. It returns an error when the grid holds
// no mass.
func (g *Scalar) ToDensityContrast() error {
	mean := g.Mean()
	if mean <= 0 {
		return fmt.Errorf("grid: cannot form density contrast of empty grid")
	}
	for i := range g.Data {
		g.Data[i] = g.Data[i]/mean - 1
	}
	return nil
}

// Gradient computes the central-difference gradient component along axis
// (0=x, 1=y, 2=z) into out, with periodic wrapping. out must have the same
// dimension as g.
func (g *Scalar) Gradient(axis int, out *Scalar) error {
	if out.N != g.N {
		return fmt.Errorf("grid: gradient output dimension %d != %d", out.N, g.N)
	}
	if axis < 0 || axis > 2 {
		return fmt.Errorf("grid: invalid axis %d", axis)
	}
	inv2dx := 1 / (2 * g.CellSize())
	// Cells along the axis sit stride apart; the first and last of each
	// line of n are each other's neighbours.
	n := g.N
	stride := [3]int{n * n, n, 1}[axis]
	for base := 0; base < len(g.Data); base += n * stride {
		for c := 0; c < n; c++ {
			up, down := stride, -stride
			if c == n-1 {
				up -= n * stride
			}
			if c == 0 {
				down += n * stride
			}
			lo := base + c*stride
			for i := lo; i < lo+stride; i++ {
				out.Data[i] = (g.Data[i+up] - g.Data[i+down]) * inv2dx
			}
		}
	}
	return nil
}
