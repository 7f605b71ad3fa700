// Package fft implements the fast Fourier transforms the particle-mesh
// gravity solver and the power-spectrum analysis depend on.
//
// HACC's long-range force solver and the paper's in-situ power-spectrum
// calculation both rest on very large 3-D FFTs of the density field laid
// down on a uniform grid (§1: "a density estimation on a regular grid via,
// e.g., a Cloud-In-Cell (CIC) algorithm and very large FFTs"). This package
// provides an iterative radix-2 complex FFT, 3-D forward/inverse transforms
// over a flattened cube, and the k-space Poisson solve that converts a
// density contrast field into a gravitational potential.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dparallel"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Forward computes the in-place forward DFT of data, whose length must be a
// power of two. The sign convention is X[k] = sum_n x[n] exp(-2πi kn/N).
func Forward(data []complex128) error { return transform(data, twiddles(len(data), false), false) }

// Inverse computes the in-place inverse DFT including the 1/N
// normalization, so Inverse(Forward(x)) == x up to rounding.
func Inverse(data []complex128) error { return transform(data, twiddles(len(data), true), true) }

// twiddles returns the butterfly factors of a length-n transform, stage
// length L at [L/2-1, L-1): the exp(∓2πi/L)^k recurrence the butterflies
// once ran inline, stored, so the transforms keep their bits.
func twiddles(n int, inverse bool) []complex128 {
	if !IsPow2(n) {
		return nil
	}
	sign := -1.0
	if inverse {
		sign = 1
	}
	tw := make([]complex128, 0, n-1)
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		w := complex(1, 0)
		for k := 0; k < length/2; k++ {
			tw = append(tw, w)
			w *= wl
		}
	}
	return tw
}

// transform checks that len(data) is a power of two and runs butterflies.
func transform(data, tw []complex128, inverse bool) error {
	if !IsPow2(len(data)) {
		return fmt.Errorf("fft: length %d is not a power of two", len(data))
	}
	butterflies(data, tw, inverse)
	return nil
}

// butterflies runs the iterative Cooley-Tukey radix-2 algorithm on data, a
// power of two long, with its twiddles; the inverse ends with the 1/N
// normalization.
func butterflies(data, tw []complex128, inverse bool) {
	n := len(data)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			data[i], data[j] = data[j], data[i]
		}
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		w := tw[half-1 : length-1]
		for start := 0; start < n; start += length {
			for k := 0; k < half; k++ {
				u := data[start+k]
				v := data[start+k+half] * w[k]
				data[start+k] = u + v
				data[start+k+half] = u - v
			}
		}
	}
	if inverse {
		// x / complex(n, 0) is Smith's division with ratio +0:
		// ((a + b·0)/n, (b − a·0)/n). For finite a, b and n a power of two
		// that is exactly the product by 1/n below, signed zeros included;
		// other values keep the runtime's division and its C99 fix-ups.
		inv := 1 / float64(n)
		for i, v := range data {
			a, b := real(v), imag(v)
			if a-a == 0 && b-b == 0 { // both finite
				data[i] = complex((a+b*0)*inv, (b-a*0)*inv)
			} else {
				data[i] = v / complex(float64(n), 0)
			}
		}
	}
}

// Cube is a flattened n×n×n complex field with index (i,j,k) at
// i*n*n + j*n + k. It is the in-memory layout shared by the PM solver and
// the power-spectrum analysis.
type Cube struct {
	N    int
	Data []complex128
	// fwd and inv are the twiddles of length N, built by the first
	// transform each way.
	fwd, inv []complex128

	// par runs the per-plane passes of the transforms and of SolvePoisson
	// on every core; the fields after it are the operands of the pass in
	// flight.
	par            dparallel.Runner[Cube]
	tw             []complex128
	inverse        bool
	box, prefactor float64
}

// planes runs the per-plane passes on GOMAXPROCS workers.
var planes dparallel.Backend = dparallel.Parallel{MinChunk: 1}

// NewCube allocates an n³ cube; n must be a power of two.
func NewCube(n int) (*Cube, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("fft: cube dimension %d is not a power of two", n)
	}
	return &Cube{N: n, Data: make([]complex128, n*n*n)}, nil
}

// Index returns the flat index of (i, j, k).
func (c *Cube) Index(i, j, k int) int { return (i*c.N+j)*c.N + k }

// At returns the value at (i, j, k).
func (c *Cube) At(i, j, k int) complex128 { return c.Data[c.Index(i, j, k)] }

// Forward3D transforms the cube along all three axes (forward convention).
func (c *Cube) Forward3D() error { return c.transform3D(&c.fwd, false) }

// Inverse3D applies the normalized inverse transform along all three axes.
func (c *Cube) Inverse3D() error { return c.transform3D(&c.inv, true) }

// transform3D transforms every line of every axis with the twiddles cached
// in *tw: axes k and j per x-plane, then axis i per y-slab. Each line sees
// the transform it saw serially, so every worker count gives the same bits.
func (c *Cube) transform3D(tw *[]complex128, inverse bool) error {
	if !IsPow2(c.N) {
		return fmt.Errorf("fft: cube dimension %d is not a power of two", c.N)
	}
	if len(*tw) != c.N-1 {
		*tw = twiddles(c.N, inverse)
	}
	c.tw, c.inverse = *tw, inverse
	c.par.Run(planes, c, c.N, (*Cube).rowsAndColumns)
	c.par.Run(planes, c, c.N, (*Cube).pillars)
	return nil
}

// rowsAndColumns transforms, in x-planes [lo, hi), the lines along k (rows,
// contiguous) and then along j (columns), each made contiguous by
// transposing the plane in place and back.
func (c *Cube) rowsAndColumns(lo, hi int) {
	n := c.N
	for i := lo; i < hi; i++ {
		plane := c.Data[i*n*n : (i+1)*n*n]
		c.lines(plane, n)
		transpose(plane, 0, n, n)
		c.lines(plane, n)
		transpose(plane, 0, n, n)
	}
}

// pillars transforms the lines along i in y-slabs [lo, hi): slab j is the
// n×n matrix (i, k) at i*n*n + j*n + k, transposed so that each line is a
// contiguous run, transformed, and transposed back.
func (c *Cube) pillars(lo, hi int) {
	n := c.N
	for j := lo; j < hi; j++ {
		transpose(c.Data, j*n, n*n, n)
		c.lines(c.Data[j*n:], n*n)
		transpose(c.Data, j*n, n*n, n)
	}
}

// lines transforms the n runs of n values that start stride apart in d.
func (c *Cube) lines(d []complex128, stride int) {
	n := c.N
	for r := 0; r < n; r++ {
		butterflies(d[r*stride:r*stride+n], c.tw, c.inverse)
	}
}

// transpose swaps elements (a, b) and (b, a) of the n×n matrix whose
// element (a, b) sits at d[base + a*stride + b].
func transpose(d []complex128, base, stride, n int) {
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			p, q := base+a*stride+b, base+b*stride+a
			d[p], d[q] = d[q], d[p]
		}
	}
}

// FreqIndex maps grid index i on an axis of length n to its signed integer
// frequency: 0, 1, ..., n/2, -(n/2-1), ..., -1.
func FreqIndex(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}

// WaveNumber returns the physical wave number 2π·m/L for grid index i on an
// axis of n cells spanning a box of side L.
func WaveNumber(i, n int, boxSize float64) float64 {
	return 2 * math.Pi * float64(FreqIndex(i, n)) / boxSize
}

// SolvePoisson replaces the Fourier-space density contrast delta(k) in the
// cube (which must already be forward-transformed) with the potential
// phi(k) = -4πG · prefactor · delta(k) / k², zeroing the k=0 mode (the mean
// density sources no force in a periodic universe). prefactor folds in the
// cosmological constants (3/2 Ωm H₀² / a in comoving PM units); pass 1 for
// a plain unit-strength Poisson solve. It runs per x-plane on every core.
func (c *Cube) SolvePoisson(boxSize, prefactor float64) {
	c.box, c.prefactor = boxSize, prefactor
	c.par.Run(planes, c, c.N, (*Cube).poissonPlanes)
}

func (c *Cube) poissonPlanes(lo, hi int) {
	n, box, prefactor := c.N, c.box, c.prefactor
	for i := lo; i < hi; i++ {
		kx := WaveNumber(i, n, box)
		for j := 0; j < n; j++ {
			ky := WaveNumber(j, n, box)
			for k := 0; k < n; k++ {
				kz := WaveNumber(k, n, box)
				k2 := kx*kx + ky*ky + kz*kz
				idx := c.Index(i, j, k)
				if k2 == 0 {
					c.Data[idx] = 0
					continue
				}
				c.Data[idx] *= complex(-prefactor/k2, 0)
			}
		}
	}
}
