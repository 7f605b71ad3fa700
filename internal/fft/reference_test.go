package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// refTransform is the butterfly loop as it was before the twiddle table,
// recomputing exp(sign·2πi/L)^k by repeated multiplication in every block:
// the table-driven transforms must reproduce its bits.
func refTransform(data []complex128, sign float64) error {
	n := len(data)
	if n == 1 {
		return nil
	}
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
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := data[start+k]
				v := data[start+k+half] * w
				data[start+k] = u + v
				data[start+k+half] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// refTransform3D is the parent's axis-by-axis driver: f on every line.
func refTransform3D(c *Cube, f func([]complex128) error) error {
	n := c.N
	line := make([]complex128, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			base := (i*n + j) * n
			if err := f(c.Data[base : base+n]); err != nil {
				return err
			}
		}
	}
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

func refForward(data []complex128) error { return refTransform(data, -1) }

func refInverse(data []complex128) error {
	if err := refTransform(data, +1); err != nil {
		return err
	}
	n := float64(len(data))
	for i := range data {
		data[i] /= complex(n, 0)
	}
	return nil
}

func sameComplexBits(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// randomComplex returns n normal deviates, then sets every entry to a
// signed zero with probability zeros and gives the last a wide dynamic
// range. Signed zeros are where a skipped or reordered multiply shows:
// (a, -0)·(1, 0) is (a, +0), and that sign survives a butterfly only
// against another zero.
func randomComplex(rng *rand.Rand, n int, zeros float64) []complex128 {
	x := make([]complex128, n)
	sign := [2]float64{0, math.Copysign(0, -1)}
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		if rng.Float64() < zeros {
			x[i] = complex(sign[rng.Intn(2)], sign[rng.Intn(2)])
		}
	}
	if n > 2 && zeros < 1 {
		x[n-1] = complex(1e300*rng.NormFloat64(), 1e-300*rng.NormFloat64())
	}
	return x
}

func TestTransformsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for n := 1; n <= 256; n <<= 1 {
		for _, zeros := range []float64{0, 0.5, 1, 1, 1, 1, 1, 1} {
			x := randomComplex(rng, n, zeros)
			for _, c := range []struct {
				name      string
				got, want func([]complex128) error
			}{{"Forward", Forward, refForward}, {"Inverse", Inverse, refInverse}} {
				got, want := append([]complex128(nil), x...), append([]complex128(nil), x...)
				if err := c.got(got); err != nil {
					t.Fatal(err)
				}
				if err := c.want(want); err != nil {
					t.Fatal(err)
				}
				if i := sameComplexBits(got, want); i >= 0 {
					t.Fatalf("%s n=%d: element %d = %v, reference %v", c.name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// The cube transforms, each direction run twice on one Cube so the second
// pass reads the cached table; 64³ is the largest cube the test allocates.
func TestCubeTransformsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 64; n <<= 1 {
		c, err := NewCube(n)
		if err != nil {
			t.Fatal(err)
		}
		ref := &Cube{N: n}
		for pass, zeros := range []float64{0, 1} {
			copy(c.Data, randomComplex(rng, n*n*n, zeros))
			ref.Data = append([]complex128(nil), c.Data...)
			if err := c.Forward3D(); err != nil {
				t.Fatal(err)
			}
			if err := refTransform3D(ref, refForward); err != nil {
				t.Fatal(err)
			}
			if i := sameComplexBits(c.Data, ref.Data); i >= 0 {
				t.Fatalf("Forward3D n=%d pass %d: element %d = %v, reference %v", n, pass, i, c.Data[i], ref.Data[i])
			}
			if err := c.Inverse3D(); err != nil {
				t.Fatal(err)
			}
			if err := refTransform3D(ref, refInverse); err != nil {
				t.Fatal(err)
			}
			if i := sameComplexBits(c.Data, ref.Data); i >= 0 {
				t.Fatalf("Inverse3D n=%d pass %d: element %d = %v, reference %v", n, pass, i, c.Data[i], ref.Data[i])
			}
		}
	}
}
