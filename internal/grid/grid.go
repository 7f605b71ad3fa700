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

	"repro/internal/dparallel"
	"repro/internal/periodic"
)

// planes runs the per-x-plane passes (deposit, gradient) and cells the
// per-cell ones on GOMAXPROCS workers; with one, they run inline. (Held as
// Backends: converting a Parallel at each call would allocate.)
var (
	planes dparallel.Backend = dparallel.Parallel{MinChunk: 1}
	cells  dparallel.Backend = dparallel.Parallel{}
)

// Scalar is a flattened n×n×n real-valued periodic field with cell (i,j,k)
// at i*n*n + j*n + k, covering a cubic box of physical side BoxSize.
type Scalar struct {
	N       int
	BoxSize float64
	Data    []float64

	// par runs the grid's parallel passes; the fields after it are the
	// operands of the pass in flight.
	par     dparallel.Runner[Scalar]
	x, y, z []float64
	mean    float64
	out     [3]*Scalar
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
	cell := float64(g.N) / g.BoxSize
	i0, i1 := cicWeights(x, g.N, g.BoxSize, cell, &s.wx)
	s.setYZ(g, cell, i0, i1, y, z)
}

// setYZ completes the stencil of a position whose x cells are i0 and i1,
// their weights already in s.wx.
func (s *stencil) setYZ(g *Scalar, cell float64, i0, i1 int, y, z float64) {
	n, l := g.N, g.BoxSize
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

// add deposits mass m at the stencil's corners in the x cells marked in on
// (on[0]: i0, on[1]: i1), in corner order.
func (s *stencil) add(data []float64, m float64, on [2]bool) {
	// m·wx·wy is common to two corners: computed once, rounded the same.
	for a := 0; a < 2; a++ {
		if !on[a] {
			continue
		}
		ma := m * s.wx[a]
		for b := 0; b < 2; b++ {
			mab, c := ma*s.wy[b], 4*a+2*b
			data[s.idx[c]] += mab * s.wz[0]
			data[s.idx[c+1]] += mab * s.wz[1]
		}
	}
}

// DepositCIC adds mass m at position (x, y, z) using Cloud-In-Cell
// weighting. Positions outside the box are wrapped periodically.
func (g *Scalar) DepositCIC(x, y, z, m float64) {
	var s stencil
	s.set(g, x, y, z)
	s.add(g.Data, m, [2]bool{true, true})
}

// AssignCIC sets g to the CIC mass of unit-mass particles at (x[i], y[i],
// z[i]): bit for bit Fill(0) and then DepositCIC(x[i], y[i], z[i], 1) in
// index order, but on every core. Each worker owns a run of x-planes, a
// contiguous block of Data, and deposits in index order only the corners
// that fall in it, so every cell still sums its contributions in the
// serial order: no private grids, no reduction.
func (g *Scalar) AssignCIC(x, y, z []float64) {
	g.x, g.y, g.z = x, y, z
	g.par.Run(planes, g, g.N, (*Scalar).assignPlanes)
	g.x, g.y, g.z = nil, nil, nil
}

func (g *Scalar) assignPlanes(lo, hi int) {
	n, l := g.N, g.BoxSize
	cell := float64(n) / l
	clear(g.Data[lo*n*n : hi*n*n])
	var s stencil
	for p, x := range g.x {
		i0, i1 := cicWeights(x, n, l, cell, &s.wx)
		if on := [2]bool{lo <= i0 && i0 < hi, lo <= i1 && i1 < hi}; on[0] || on[1] {
			s.setYZ(g, cell, i0, i1, g.y[p], g.z[p])
			s.add(g.Data, 1, on)
		}
	}
}

// InterpolateCIC3 reads the three components a, b and c of a vector field
// at position (x, y, z) with the CIC weighting used for deposits (so PM
// forces conserve momentum), computing the stencil once. b and c must
// have a's N and BoxSize.
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
	g.mean = mean
	g.par.Run(cells, g, len(g.Data), (*Scalar).contrastCells)
	return nil
}

func (g *Scalar) contrastCells(lo, hi int) {
	mean := g.mean
	for i, v := range g.Data[lo:hi] {
		g.Data[lo+i] = v/mean - 1
	}
}

// NegGradient writes -∇g, central differences with periodic wrapping, into
// fx, fy and fz: the PM acceleration of a potential. The outputs must be
// distinct from g and have its dimension. It runs per x-plane on every
// core.
func (g *Scalar) NegGradient(fx, fy, fz *Scalar) error {
	for _, f := range [3]*Scalar{fx, fy, fz} {
		if f.N != g.N {
			return fmt.Errorf("grid: gradient output dimension %d != %d", f.N, g.N)
		}
	}
	g.out = [3]*Scalar{fx, fy, fz}
	g.par.Run(planes, g, g.N, (*Scalar).negGradientPlanes)
	g.out = [3]*Scalar{}
	return nil
}

func (g *Scalar) negGradientPlanes(lo, hi int) {
	n, d := g.N, g.Data
	inv2dx := 1 / (2 * g.CellSize())
	fx, fy, fz := g.out[0].Data, g.out[1].Data, g.out[2].Data
	for i := lo; i < hi; i++ {
		for j := 0; j < n; j++ {
			row := (i*n + j) * n
			xUp, xDown := (wrap(i+1, n)*n+j)*n, (wrap(i-1, n)*n+j)*n
			yUp, yDown := (i*n+wrap(j+1, n))*n, (i*n+wrap(j-1, n))*n
			for k := 0; k < n; k++ {
				kUp, kDown := k+1, k-1
				if kUp == n {
					kUp = 0
				}
				if kDown < 0 {
					kDown = n - 1
				}
				fx[row+k] = -((d[xUp+k] - d[xDown+k]) * inv2dx)
				fy[row+k] = -((d[yUp+k] - d[yDown+k]) * inv2dx)
				fz[row+k] = -((d[row+kUp] - d[row+kDown]) * inv2dx)
			}
		}
	}
}
