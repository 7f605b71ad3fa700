package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// InterpolateCIC reads the field at (x, y, z) with the CIC weighting used
// for deposits: one component of InterpolateCIC3.
func (g *Scalar) InterpolateCIC(x, y, z float64) float64 {
	var s stencil
	s.set(g, x, y, z)
	return s.sum(g.Data)
}

// Fill sets every cell to v.
func (g *Scalar) Fill(v float64) {
	for i := range g.Data {
		g.Data[i] = v
	}
}

func TestNewScalarValidation(t *testing.T) {
	if _, err := NewScalar(0, 1); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := NewScalar(4, 0); err == nil {
		t.Error("expected error for boxSize=0")
	}
	g, err := NewScalar(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Data) != 64 {
		t.Errorf("len = %d", len(g.Data))
	}
	if g.CellSize() != 2.5 {
		t.Errorf("cell size = %v", g.CellSize())
	}
}

func TestAtSetPeriodicWrap(t *testing.T) {
	g, _ := NewScalar(4, 1)
	cell := func(i, j, k int) *float64 { return &g.Data[g.Index(wrap(i, g.N), wrap(j, g.N), wrap(k, g.N))] }
	*cell(0, 0, 0) = 7
	if *cell(4, -4, 8) != 7 {
		t.Error("periodic wrap failed")
	}
	*cell(-1, 5, 2) = 3
	if g.Data[g.Index(3, 1, 2)] != 3 {
		t.Error("wrapped store failed")
	}
}

func TestFillTotalMean(t *testing.T) {
	g, _ := NewScalar(2, 1)
	g.Fill(0.5)
	if g.Total() != 4 {
		t.Errorf("total = %v", g.Total())
	}
	if g.Mean() != 0.5 {
		t.Errorf("mean = %v", g.Mean())
	}
}

// CIC must conserve mass exactly regardless of particle position.
func TestDepositCICConservesMass(t *testing.T) {
	g, _ := NewScalar(8, 100)
	rng := rand.New(rand.NewSource(5))
	total := 0.0
	for i := 0; i < 100; i++ {
		m := rng.Float64() + 0.1
		// Include out-of-box positions to exercise wrapping.
		g.DepositCIC(rng.Float64()*300-100, rng.Float64()*300-100, rng.Float64()*300-100, m)
		total += m
	}
	if math.Abs(g.Total()-total) > 1e-9*total {
		t.Errorf("grid total = %v, deposited %v", g.Total(), total)
	}
}

// A particle exactly at a cell centre deposits all mass into that cell.
func TestDepositCICAtCellCentre(t *testing.T) {
	g, _ := NewScalar(4, 4) // cell size 1; centres at 0.5, 1.5, ...
	g.DepositCIC(1.5, 2.5, 3.5, 2.0)
	if v := g.Data[g.Index(1, 2, 3)]; math.Abs(v-2.0) > 1e-12 {
		t.Errorf("centre cell = %v, want 2", v)
	}
	if math.Abs(g.Total()-2.0) > 1e-12 {
		t.Errorf("total = %v", g.Total())
	}
}

// A particle midway between two centres splits mass 50/50 along that axis.
func TestDepositCICSplitsAtCellEdge(t *testing.T) {
	g, _ := NewScalar(4, 4)
	g.DepositCIC(2.0, 0.5, 0.5, 1.0) // x=2.0 is the edge between cells 1 and 2
	v1 := g.Data[g.Index(1, 0, 0)]
	v2 := g.Data[g.Index(2, 0, 0)]
	if math.Abs(v1-0.5) > 1e-12 || math.Abs(v2-0.5) > 1e-12 {
		t.Errorf("split = %v, %v, want 0.5, 0.5", v1, v2)
	}
}

// Interpolating a constant field returns the constant anywhere.
func TestInterpolateCICConstantField(t *testing.T) {
	g, _ := NewScalar(8, 10)
	g.Fill(3.25)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		x, y, z := rng.Float64()*10, rng.Float64()*10, rng.Float64()*10
		if v := g.InterpolateCIC(x, y, z); math.Abs(v-3.25) > 1e-12 {
			t.Fatalf("interp(%v,%v,%v) = %v", x, y, z, v)
		}
	}
}

// Interpolating a linear ramp field is exact at interior points (CIC is
// trilinear).
func TestInterpolateCICLinearField(t *testing.T) {
	g, _ := NewScalar(16, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			for k := 0; k < 16; k++ {
				g.Data[g.Index(i, j, k)] = float64(i) // value = x-index
			}
		}
	}
	// At x=5.5 (boundary-safe interior), value should be exactly 5.0 since
	// cell centres are at 5.5 -> index 5.
	if v := g.InterpolateCIC(5.5, 8.0, 8.0); math.Abs(v-5.0) > 1e-12 {
		t.Errorf("interp = %v, want 5", v)
	}
	// Halfway between cell centres 5.5 and 6.5 -> 5.5.
	if v := g.InterpolateCIC(6.0, 8.0, 8.0); math.Abs(v-5.5) > 1e-12 {
		t.Errorf("interp = %v, want 5.5", v)
	}
}

func TestToDensityContrast(t *testing.T) {
	g, _ := NewScalar(2, 1)
	g.Fill(2)
	g.Data[0] = 6
	if err := g.ToDensityContrast(); err != nil {
		t.Fatal(err)
	}
	// Mean was (6+7*2)/8 = 2.5
	if math.Abs(g.Data[0]-(6/2.5-1)) > 1e-12 {
		t.Errorf("delta[0] = %v", g.Data[0])
	}
	// Mean of delta must be 0.
	if math.Abs(g.Mean()) > 1e-12 {
		t.Errorf("mean delta = %v", g.Mean())
	}
	empty, _ := NewScalar(2, 1)
	if err := empty.ToDensityContrast(); err == nil {
		t.Error("expected error for empty grid")
	}
}

func TestGradientOfLinearRamp(t *testing.T) {
	n := 8
	g, _ := NewScalar(n, float64(n)) // cell size 1
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				g.Data[g.Index(i, j, k)] = float64(j) * 2 // df/dy = 2 in interior
			}
		}
	}
	fx, _ := NewScalar(n, float64(n))
	fy, _ := NewScalar(n, float64(n))
	fz, _ := NewScalar(n, float64(n))
	if err := g.NegGradient(fx, fy, fz); err != nil {
		t.Fatal(err)
	}
	// Interior cells have exact gradient 2; wrap cells (j=0, j=n-1) differ.
	for j := 1; j < n-1; j++ {
		if v := fy.Data[fy.Index(4, j, 4)]; math.Abs(v+2) > 1e-12 {
			t.Errorf("-grad y at j=%d: %v, want -2", j, v)
		}
		if fx.Data[fx.Index(4, j, 4)] != 0 || fz.Data[fz.Index(4, j, 4)] != 0 {
			t.Errorf("-grad x, z at j=%d: %v, %v, want 0", j, fx.Data[fx.Index(4, j, 4)], fz.Data[fz.Index(4, j, 4)])
		}
	}
}

func TestGradientValidation(t *testing.T) {
	g, _ := NewScalar(4, 1)
	small, _ := NewScalar(2, 1)
	out, _ := NewScalar(4, 1)
	for _, f := range [][3]*Scalar{{small, out, out}, {out, small, out}, {out, out, small}} {
		if err := g.NegGradient(f[0], f[1], f[2]); err == nil {
			t.Error("expected dimension error")
		}
	}
}

// Property: deposit + interpolate of a sinusoid agrees within second-order
// accuracy as the grid refines.
func TestCICConvergence(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(2 * math.Pi * x / 10) }
	var errs []float64
	for _, n := range []int{16, 32} {
		g, _ := NewScalar(n, 10)
		for i := 0; i < n; i++ {
			x := (float64(i) + 0.5) * g.CellSize()
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					g.Data[g.Index(i, j, k)] = f(x)
				}
			}
		}
		maxErr := 0.0
		for s := 0; s < 100; s++ {
			x := float64(s) / 100 * 10
			if e := math.Abs(g.InterpolateCIC(x, 5, 5) - f(x)); e > maxErr {
				maxErr = e
			}
		}
		errs = append(errs, maxErr)
	}
	if errs[1] > errs[0]/2.5 {
		t.Errorf("CIC interpolation not converging ~2nd order: %v", errs)
	}
}

// Property: mass conservation holds for arbitrary positions and masses.
func TestPropertyDepositConservesMass(t *testing.T) {
	f := func(xs [6]float64, masses [2]uint8) bool {
		g, _ := NewScalar(4, 7)
		want := 0.0
		for p := 0; p < 2; p++ {
			m := float64(masses[p]) + 1
			x := math.Mod(xs[3*p], 1e6)
			y := math.Mod(xs[3*p+1], 1e6)
			z := math.Mod(xs[3*p+2], 1e6)
			if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) {
				return true
			}
			g.DepositCIC(x, y, z, m)
			want += m
		}
		return math.Abs(g.Total()-want) < 1e-9*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
