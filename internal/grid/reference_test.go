package grid

import (
	"math"
	"math/rand"
	"testing"
)

// The CIC and gradient kernels as they were before the shared stencil and
// the stride-offset gradient: the new ones must reproduce their bits.

func refWrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

func refWrapPos(x, l float64) float64 {
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}

func refCICWeights(x float64, n int, l float64) (i0, i1 int, w0, w1 float64) {
	cell := float64(n) / l
	u := refWrapPos(x, l)*cell - 0.5
	f := math.Floor(u)
	d := u - f
	i0 = refWrap(int(f), n)
	i1 = refWrap(int(f)+1, n)
	return i0, i1, 1 - d, d
}

func refDepositCIC(g *Scalar, x, y, z, m float64) {
	i0, i1, wx0, wx1 := refCICWeights(x, g.N, g.BoxSize)
	j0, j1, wy0, wy1 := refCICWeights(y, g.N, g.BoxSize)
	k0, k1, wz0, wz1 := refCICWeights(z, g.N, g.BoxSize)
	g.Data[g.Index(i0, j0, k0)] += m * wx0 * wy0 * wz0
	g.Data[g.Index(i0, j0, k1)] += m * wx0 * wy0 * wz1
	g.Data[g.Index(i0, j1, k0)] += m * wx0 * wy1 * wz0
	g.Data[g.Index(i0, j1, k1)] += m * wx0 * wy1 * wz1
	g.Data[g.Index(i1, j0, k0)] += m * wx1 * wy0 * wz0
	g.Data[g.Index(i1, j0, k1)] += m * wx1 * wy0 * wz1
	g.Data[g.Index(i1, j1, k0)] += m * wx1 * wy1 * wz0
	g.Data[g.Index(i1, j1, k1)] += m * wx1 * wy1 * wz1
}

func refInterpolateCIC(g *Scalar, x, y, z float64) float64 {
	i0, i1, wx0, wx1 := refCICWeights(x, g.N, g.BoxSize)
	j0, j1, wy0, wy1 := refCICWeights(y, g.N, g.BoxSize)
	k0, k1, wz0, wz1 := refCICWeights(z, g.N, g.BoxSize)
	return g.Data[g.Index(i0, j0, k0)]*wx0*wy0*wz0 +
		g.Data[g.Index(i0, j0, k1)]*wx0*wy0*wz1 +
		g.Data[g.Index(i0, j1, k0)]*wx0*wy1*wz0 +
		g.Data[g.Index(i0, j1, k1)]*wx0*wy1*wz1 +
		g.Data[g.Index(i1, j0, k0)]*wx1*wy0*wz0 +
		g.Data[g.Index(i1, j0, k1)]*wx1*wy0*wz1 +
		g.Data[g.Index(i1, j1, k0)]*wx1*wy1*wz0 +
		g.Data[g.Index(i1, j1, k1)]*wx1*wy1*wz1
}

func refAt(g *Scalar, i, j, k int) float64 {
	return g.Data[g.Index(refWrap(i, g.N), refWrap(j, g.N), refWrap(k, g.N))]
}

func refGradient(g *Scalar, axis int, out *Scalar) {
	inv2dx := 1 / (2 * g.CellSize())
	n := g.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				var plus, minus float64
				switch axis {
				case 0:
					plus, minus = refAt(g, i+1, j, k), refAt(g, i-1, j, k)
				case 1:
					plus, minus = refAt(g, i, j+1, k), refAt(g, i, j-1, k)
				default:
					plus, minus = refAt(g, i, j, k+1), refAt(g, i, j, k-1)
				}
				out.Data[out.Index(i, j, k)] = (plus - minus) * inv2dx
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func randomField(t *testing.T, rng *rand.Rand, n int, box float64) *Scalar {
	t.Helper()
	g, err := NewScalar(n, box)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	return g
}

// cicPositions are coordinates for a box of side l: the faces, the last
// float below l, just below zero, beyond the box on both sides, cell
// centres and edges, and random ones in and around the box.
func cicPositions(rng *rand.Rand, n int, l float64) []float64 {
	tiny := math.SmallestNonzeroFloat64
	dx := l / float64(n)
	xs := []float64{
		0, math.Copysign(0, -1), math.Nextafter(l, 0), l, -tiny, -1e-300, tiny,
		l + 0.25*dx, 2*l + 0.7*dx, -0.3 * dx, -l - 0.5*dx, 7.5 * l, -3.25 * l,
		0.5 * dx, dx, float64(n-1) * dx, (float64(n) - 0.5) * dx,
	}
	for i := 0; i < 40; i++ {
		xs = append(xs, rng.Float64()*l, (rng.Float64()*5-2)*l)
	}
	return xs
}

func TestCICStencilMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{1, 2, 32} {
		for _, l := range []float64{40, 1, 0.3} {
			a, b, c := randomField(t, rng, n, l), randomField(t, rng, n, l), randomField(t, rng, n, l)
			if l == 1 {
				c.Fill(math.Copysign(0, -1)) // a sum of -0 terms is -0, not +0
			}
			got, _ := NewScalar(n, l)
			want, _ := NewScalar(n, l)
			xs := cicPositions(rng, n, l)
			for p := 0; p < 600; p++ {
				x, y, z := xs[rng.Intn(len(xs))], xs[rng.Intn(len(xs))], xs[rng.Intn(len(xs))]
				if p < len(xs) {
					x, y, z = xs[p], xs[(p+3)%len(xs)], xs[len(xs)-1-p]
				}
				va, vb, vc := InterpolateCIC3(a, b, c, x, y, z)
				for k, pair := range [][3]float64{
					{va, a.InterpolateCIC(x, y, z), refInterpolateCIC(a, x, y, z)},
					{vb, b.InterpolateCIC(x, y, z), refInterpolateCIC(b, x, y, z)},
					{vc, c.InterpolateCIC(x, y, z), refInterpolateCIC(c, x, y, z)},
				} {
					if !sameBits(pair[0], pair[2]) || !sameBits(pair[1], pair[2]) {
						t.Fatalf("n=%d l=%v (%v,%v,%v) field %d: InterpolateCIC3 %v, InterpolateCIC %v, reference %v",
							n, l, x, y, z, k, pair[0], pair[1], pair[2])
					}
				}
				m := rng.Float64() + 0.5
				got.DepositCIC(x, y, z, m)
				refDepositCIC(want, x, y, z, m)
			}
			for i := range got.Data {
				if !sameBits(got.Data[i], want.Data[i]) {
					t.Fatalf("n=%d l=%v: deposited cell %d = %v, reference %v", n, l, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestGradientMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 32} {
		g := randomField(t, rng, n, 7.5)
		for axis := 0; axis < 3; axis++ {
			got, _ := NewScalar(n, 7.5)
			want, _ := NewScalar(n, 7.5)
			if err := g.Gradient(axis, got); err != nil {
				t.Fatal(err)
			}
			refGradient(g, axis, want)
			for i := range got.Data {
				if !sameBits(got.Data[i], want.Data[i]) {
					t.Fatalf("n=%d axis %d: cell %d = %v, reference %v", n, axis, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestWrapMatchesModulo(t *testing.T) {
	for _, n := range []int{1, 2, 3, 32} {
		for _, i := range []int{0, 1, -1, n - 1, n, n + 1, -n, -n - 1, 2 * n, 2*n + 1, -2*n - 1, 17 * n, -33*n + 5,
			math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1} {
			if got, want := wrap(i, n), refWrap(i, n); got != want {
				t.Errorf("wrap(%d, %d) = %d, want %d", i, n, got, want)
			}
		}
	}
}
