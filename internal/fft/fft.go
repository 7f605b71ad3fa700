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

// transform runs the iterative Cooley-Tukey radix-2 algorithm with the
// twiddles of len(data); the inverse ends with the 1/N normalization.
func transform(data, tw []complex128, inverse bool) error {
	n := len(data)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
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
		for i := range data {
			data[i] /= complex(float64(n), 0)
		}
	}
	return nil
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
}

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

// Set stores v at (i, j, k).
func (c *Cube) Set(i, j, k int, v complex128) { c.Data[c.Index(i, j, k)] = v }

// Forward3D transforms the cube along all three axes (forward convention).
func (c *Cube) Forward3D() error { return c.transform3D(&c.fwd, false) }

// Inverse3D applies the normalized inverse transform along all three axes.
func (c *Cube) Inverse3D() error { return c.transform3D(&c.inv, true) }

// transform3D runs transform along every line of every axis with the
// twiddles cached in *tw.
func (c *Cube) transform3D(tw *[]complex128, inverse bool) error {
	if len(*tw) != c.N-1 {
		*tw = twiddles(c.N, inverse)
	}
	f := func(line []complex128) error { return transform(line, *tw, inverse) }
	n := c.N
	line := make([]complex128, n)
	// Axis k (contiguous).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			base := (i*n + j) * n
			if err := f(c.Data[base : base+n]); err != nil {
				return err
			}
		}
	}
	// Axis j.
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				line[j] = c.Data[(i*n+j)*n+k]
			}
			if err := f(line); err != nil {
				return err
			}
			for j := 0; j < n; j++ {
				c.Data[(i*n+j)*n+k] = line[j]
			}
		}
	}
	// Axis i.
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				line[i] = c.Data[(i*n+j)*n+k]
			}
			if err := f(line); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				c.Data[(i*n+j)*n+k] = line[i]
			}
		}
	}
	return nil
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
// a plain unit-strength Poisson solve.
func (c *Cube) SolvePoisson(boxSize, prefactor float64) {
	n := c.N
	for i := 0; i < n; i++ {
		kx := WaveNumber(i, n, boxSize)
		for j := 0; j < n; j++ {
			ky := WaveNumber(j, n, boxSize)
			for k := 0; k < n; k++ {
				kz := WaveNumber(k, n, boxSize)
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
