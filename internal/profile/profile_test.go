package profile

import (
	"math"
	"math/rand"
	"testing"
)

// sampleNFW generates n particle radii following an NFW profile with the
// given scale radius, truncated at rMax, using inverse-transform sampling
// of the enclosed-mass function m(r) ∝ ln(1+r/rs) - (r/rs)/(1+r/rs).
// The uniform variates are supplied by rand01 (pass rng.Float64).
func sampleNFW(n int, rs, rMax float64, rand01 func() float64) []float64 {
	mEnc := func(r float64) float64 {
		q := r / rs
		return math.Log(1+q) - q/(1+q)
	}
	total := mEnc(rMax)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		target := rand01() * total
		// Bisection on the monotone enclosed-mass function.
		lo, hi := 0.0, rMax
		for iter := 0; iter < 60; iter++ {
			mid := (lo + hi) / 2
			if mEnc(mid) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		out[i] = (lo + hi) / 2
	}
	return out
}

// nfwCloud builds a 3-D NFW-distributed particle cloud centred at c.
func nfwCloud(n int, rs, rMax float64, cx, cy, cz float64, seed int64) (x, y, z []float64) {
	rng := rand.New(rand.NewSource(seed))
	radii := sampleNFW(n, rs, rMax, rng.Float64)
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	for i, r := range radii {
		theta := math.Acos(2*rng.Float64() - 1)
		phi := 2 * math.Pi * rng.Float64()
		x[i] = cx + r*math.Sin(theta)*math.Cos(phi)
		y[i] = cy + r*math.Sin(theta)*math.Sin(phi)
		z[i] = cz + r*math.Cos(theta)
	}
	return
}

func TestOptionsValidation(t *testing.T) {
	x := []float64{1}
	bad := []Options{
		{ParticleMass: 0, RMin: 0.1, RMax: 1, Bins: 8},
		{ParticleMass: 1, RMin: 0, RMax: 1, Bins: 8},
		{ParticleMass: 1, RMin: 1, RMax: 0.5, Bins: 8},
		{ParticleMass: 1, RMin: 0.1, RMax: 1, Bins: 0},
	}
	for i, o := range bad {
		if _, err := Measure(x, x, x, 0, 0, 0, o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMeasureCountsAndMass(t *testing.T) {
	// Two shells of known occupancy.
	var x, y, z []float64
	add := func(r float64, n int) {
		for i := 0; i < n; i++ {
			phi := 2 * math.Pi * float64(i) / float64(n)
			x = append(x, r*math.Cos(phi))
			y = append(y, r*math.Sin(phi))
			z = append(z, 0)
		}
	}
	add(0.05, 3) // inside RMin: enclosed only
	add(0.3, 10) // first decade bin [0.1, 1)
	add(3.0, 20) // second decade bin [1, 10)
	add(50.0, 5) // outside RMax: ignored
	o := Options{ParticleMass: 2, RMin: 0.1, RMax: 10, Bins: 2}
	p, err := Measure(x, y, z, 0, 0, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count[0] != 10 || p.Count[1] != 20 {
		t.Errorf("counts = %v", p.Count)
	}
	if p.MEnclosed[0] != 26 { // (3+10)*2
		t.Errorf("MEnclosed[0] = %v", p.MEnclosed[0])
	}
	if p.MEnclosed[1] != 66 { // (3+10+20)*2
		t.Errorf("MEnclosed[1] = %v", p.MEnclosed[1])
	}
	// Density = count*mass/shell volume.
	vol0 := 4.0 / 3.0 * math.Pi * (1 - 0.001)
	if math.Abs(p.Rho[0]-20/vol0) > 1e-9 {
		t.Errorf("rho[0] = %v, want %v", p.Rho[0], 20/vol0)
	}
}

func TestNFWShape(t *testing.T) {
	if NFW(0, 1, 1) != 0 || NFW(1, 1, 0) != 0 {
		t.Error("degenerate NFW should be 0")
	}
	// At r = rs: rho0/4.
	if v := NFW(2, 8, 2); math.Abs(v-2) > 1e-12 {
		t.Errorf("NFW(rs) = %v, want rho0/4", v)
	}
	// Slope approaches -1 inside, -3 outside.
	inner := math.Log(NFW(0.02, 1, 1)/NFW(0.01, 1, 1)) / math.Log(2)
	outer := math.Log(NFW(200, 1, 1)/NFW(100, 1, 1)) / math.Log(2)
	if math.Abs(inner+1) > 0.1 {
		t.Errorf("inner slope = %v, want -1", inner)
	}
	if math.Abs(outer+3) > 0.1 {
		t.Errorf("outer slope = %v, want -3", outer)
	}
}

func TestSampleNFWEnclosedMass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rs, rMax := 1.0, 10.0
	radii := sampleNFW(20000, rs, rMax, rng.Float64)
	// Fraction inside rs should match m(rs)/m(rMax).
	mEnc := func(r float64) float64 {
		q := r / rs
		return math.Log(1+q) - q/(1+q)
	}
	want := mEnc(rs) / mEnc(rMax)
	got := 0.0
	for _, r := range radii {
		if r > rMax {
			t.Fatalf("sample %v beyond rMax", r)
		}
		if r < rs {
			got++
		}
	}
	got /= float64(len(radii))
	if math.Abs(got-want) > 0.02 {
		t.Errorf("fraction inside rs = %v, want %v", got, want)
	}
}

// Fitting a profile measured from an NFW sample must recover rs.
func TestFitNFWRecoversScaleRadius(t *testing.T) {
	rs := 0.5
	x, y, z := nfwCloud(30000, rs, 5, 0, 0, 0, 2)
	p, err := Measure(x, y, z, 0, 0, 0, Options{ParticleMass: 1, RMin: 0.05, RMax: 5, Bins: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, fitRs, resid, err := p.FitNFW()
	if err != nil {
		t.Fatal(err)
	}
	if fitRs < rs/1.5 || fitRs > rs*1.5 {
		t.Errorf("fit rs = %v, want ~%v (residual %v)", fitRs, rs, resid)
	}
	if resid > 0.5 {
		t.Errorf("fit residual = %v", resid)
	}
}

func TestFitNFWNeedsBins(t *testing.T) {
	p := &Profile{REdges: []float64{0.1, 1, 10}, Rho: []float64{0, 0}, Count: []int{0, 0}}
	if _, _, _, err := p.FitNFW(); err == nil {
		t.Error("expected error for empty profile")
	}
}

func TestConcentration(t *testing.T) {
	c, err := Concentration(10, 2)
	if err != nil || c != 5 {
		t.Errorf("c = %v, %v", c, err)
	}
	if _, err := Concentration(0, 1); err == nil {
		t.Error("expected error")
	}
}

// The paper's claim (§3.3.2): "if the center is not exactly at the density
// maximum, the concentration will be underestimated." Measure the same NFW
// halo around its true center and around an offset center: the offset fit
// must yield a larger rs (i.e. smaller concentration).
func TestOffsetCenterUnderestimatesConcentration(t *testing.T) {
	rs := 0.5
	rVir := 5.0
	x, y, z := nfwCloud(30000, rs, rVir, 0, 0, 0, 3)
	o := Options{ParticleMass: 1, RMin: 0.05, RMax: rVir, Bins: 16}

	pTrue, err := Measure(x, y, z, 0, 0, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	_, rsTrue, _, err := pTrue.FitNFW()
	if err != nil {
		t.Fatal(err)
	}
	cTrue, err := Concentration(rVir, rsTrue)
	if err != nil {
		t.Fatal(err)
	}

	pOff, err := Measure(x, y, z, 0.6, 0, 0, o) // offset by ~rs
	if err != nil {
		t.Fatal(err)
	}
	_, rsOff, _, err := pOff.FitNFW()
	if err != nil {
		t.Fatal(err)
	}
	cOff, err := Concentration(rVir, rsOff)
	if err != nil {
		t.Fatal(err)
	}
	if cOff >= cTrue {
		t.Errorf("offset center concentration %v >= true-center %v; the paper says it must be underestimated", cOff, cTrue)
	}
	t.Logf("concentration: true center %.2f, offset center %.2f", cTrue, cOff)
}
