package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	cases := map[int]bool{1: true, 2: true, 4: true, 1024: true, 0: false, -4: false, 3: false, 6: false, 1023: false}
	for n, want := range cases {
		if got := IsPow2(n); got != want {
			t.Errorf("IsPow2(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestForwardRejectsNonPow2(t *testing.T) {
	if err := Forward(make([]complex128, 3)); err == nil {
		t.Error("expected error for length 3")
	}
	if err := Inverse(make([]complex128, 6)); err == nil {
		t.Error("expected error for length 6")
	}
}

func TestForwardLength1IsIdentity(t *testing.T) {
	d := []complex128{complex(3, 4)}
	if err := Forward(d); err != nil {
		t.Fatal(err)
	}
	if d[0] != complex(3, 4) {
		t.Errorf("got %v", d[0])
	}
}

// Compare against the direct O(n²) DFT.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			acc += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = acc
	}
	return out
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 8, 32, 128} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		if err := Forward(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: bin %d = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := append([]complex128(nil), x...)
	if err := Forward(y); err != nil {
		t.Fatal(err)
	}
	if err := Inverse(y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(y[i]-x[i]) > 1e-10 {
			t.Fatalf("round trip diverged at %d: %v vs %v", i, y[i], x[i])
		}
	}
}

// Property: Parseval's theorem — sum |x|² == (1/N) sum |X|².
func TestPropertyParseval(t *testing.T) {
	f := func(re, im [16]float64) bool {
		x := make([]complex128, 16)
		for i := range x {
			r := math.Mod(re[i], 100)
			m := math.Mod(im[i], 100)
			if math.IsNaN(r) || math.IsNaN(m) {
				r, m = 0, 0
			}
			x[i] = complex(r, m)
		}
		var timeE float64
		for _, v := range x {
			timeE += real(v)*real(v) + imag(v)*imag(v)
		}
		if err := Forward(x); err != nil {
			return false
		}
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		freqE /= 16
		return math.Abs(timeE-freqE) <= 1e-9*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFreqIndex(t *testing.T) {
	n := 8
	want := []int{0, 1, 2, 3, 4, -3, -2, -1}
	for i, w := range want {
		if got := FreqIndex(i, n); got != w {
			t.Errorf("FreqIndex(%d, 8) = %d, want %d", i, got, w)
		}
	}
}

func TestWaveNumber(t *testing.T) {
	// Index 1 on a box of size 2π should give k = 1.
	if got := WaveNumber(1, 8, 2*math.Pi); math.Abs(got-1) > 1e-12 {
		t.Errorf("WaveNumber = %v, want 1", got)
	}
	if got := WaveNumber(7, 8, 2*math.Pi); math.Abs(got+1) > 1e-12 {
		t.Errorf("WaveNumber(7) = %v, want -1", got)
	}
}

func TestNewCubeRejectsNonPow2(t *testing.T) {
	if _, err := NewCube(5); err == nil {
		t.Error("expected error")
	}
}

func TestCubeIndexing(t *testing.T) {
	c, err := NewCube(4)
	if err != nil {
		t.Fatal(err)
	}
	c.Data[c.Index(1, 2, 3)] = complex(9, 0)
	if c.At(1, 2, 3) != complex(9, 0) {
		t.Error("Set/At mismatch")
	}
	if c.Index(1, 2, 3) != 1*16+2*4+3 {
		t.Errorf("Index = %d", c.Index(1, 2, 3))
	}
}

func TestCube3DRoundTrip(t *testing.T) {
	c, err := NewCube(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	orig := make([]complex128, len(c.Data))
	for i := range c.Data {
		c.Data[i] = complex(rng.NormFloat64(), 0)
		orig[i] = c.Data[i]
	}
	if err := c.Forward3D(); err != nil {
		t.Fatal(err)
	}
	if err := c.Inverse3D(); err != nil {
		t.Fatal(err)
	}
	for i := range c.Data {
		if cmplx.Abs(c.Data[i]-orig[i]) > 1e-9 {
			t.Fatalf("3D round trip diverged at %d", i)
		}
	}
}

// A single plane wave should transform to a single non-zero bin.
func TestCubePlaneWave(t *testing.T) {
	n := 8
	c, err := NewCube(n)
	if err != nil {
		t.Fatal(err)
	}
	// x-direction mode m=2: exp(2πi·2·i/n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				ang := 2 * math.Pi * 2 * float64(i) / float64(n)
				c.Data[c.Index(i, j, k)] = cmplx.Exp(complex(0, ang))
			}
		}
	}
	if err := c.Forward3D(); err != nil {
		t.Fatal(err)
	}
	total := float64(n * n * n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				v := cmplx.Abs(c.At(i, j, k))
				if i == 2 && j == 0 && k == 0 {
					if math.Abs(v-total) > 1e-6 {
						t.Errorf("mode bin magnitude = %v, want %v", v, total)
					}
				} else if v > 1e-6 {
					t.Errorf("leak at (%d,%d,%d): %v", i, j, k, v)
				}
			}
		}
	}
}

// SolvePoisson on a plane-wave density should yield phi = prefactor/k² · delta.
func TestSolvePoissonPlaneWave(t *testing.T) {
	n := 16
	L := 2 * math.Pi * 4 // so mode m has k = m/4
	c, err := NewCube(n)
	if err != nil {
		t.Fatal(err)
	}
	// delta(x) = cos(k1 x) with m=1 => k = 0.25.
	for i := 0; i < n; i++ {
		v := math.Cos(2 * math.Pi * float64(i) / float64(n))
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				c.Data[c.Index(i, j, k)] = complex(v, 0)
			}
		}
	}
	if err := c.Forward3D(); err != nil {
		t.Fatal(err)
	}
	c.SolvePoisson(L, 1)
	if err := c.Inverse3D(); err != nil {
		t.Fatal(err)
	}
	k1 := 2 * math.Pi / L
	for i := 0; i < n; i++ {
		want := -math.Cos(2*math.Pi*float64(i)/float64(n)) / (k1 * k1)
		got := real(c.At(i, 3, 5))
		if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("phi[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestSolvePoissonZeroesMeanMode(t *testing.T) {
	c, _ := NewCube(4)
	for i := range c.Data {
		c.Data[i] = 1
	}
	if err := c.Forward3D(); err != nil {
		t.Fatal(err)
	}
	c.SolvePoisson(1, 1)
	if c.At(0, 0, 0) != 0 {
		t.Errorf("k=0 mode = %v, want 0", c.At(0, 0, 0))
	}
}
