package powerspec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/nbody"
)

func TestMeasureValidation(t *testing.T) {
	p := nbody.NewParticles(0)
	p.Append(1, 1, 1, 0, 0, 0, 0)
	if _, err := Measure(p, 10, 16, 0); err == nil {
		t.Error("expected error for nBins=0")
	}
	if _, err := Measure(p, 10, 7, 4); err == nil {
		t.Error("expected error for non-pow2 grid")
	}
	if _, err := Measure(nbody.NewParticles(0), 10, 16, 4); err == nil {
		t.Error("expected error for empty particle set")
	}
}

// A pure plane-wave density perturbation should put all its power in the
// bin containing its wave number.
func TestMeasureGridPlaneWave(t *testing.T) {
	ng := 32
	box := 64.0
	g, err := grid.NewScalar(ng, box)
	if err != nil {
		t.Fatal(err)
	}
	m := 4 // mode number along x
	amp := 0.1
	for i := 0; i < ng; i++ {
		v := amp * math.Cos(2*math.Pi*float64(m)*float64(i)/float64(ng))
		for j := 0; j < ng; j++ {
			for k := 0; k < ng; k++ {
				g.Data[g.Index(i, j, k)] = v
			}
		}
	}
	cube, err := fft.NewCube(ng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spectrum(g, cube, 15)
	if err != nil {
		t.Fatal(err)
	}
	kTarget := 2 * math.Pi * float64(m) / box
	// Find the bin holding kTarget and check it dominates.
	peakBin, peakP := -1, 0.0
	for b := range res.P {
		if res.P[b] > peakP {
			peakBin, peakP = b, res.P[b]
		}
	}
	if peakBin < 0 {
		t.Fatal("no power measured")
	}
	if math.Abs(res.K[peakBin]-kTarget) > 0.3*kTarget {
		t.Errorf("peak at k=%v, want %v", res.K[peakBin], kTarget)
	}
	// Total power in all other bins should be negligible.
	other := 0.0
	for b := range res.P {
		if b != peakBin {
			other += res.P[b] * float64(res.Modes[b])
		}
	}
	if other > 1e-9*peakP {
		t.Errorf("power leaked to other bins: %v vs peak %v", other, peakP)
	}
	// Analytic check: delta_k for cos has |delta_k|² = (amp/2)² N⁶ at ±k.
	wantP := amp * amp / 4 * box * box * box
	if math.Abs(res.P[peakBin]*float64(res.Modes[peakBin])-2*wantP) > 1e-6*wantP {
		t.Errorf("bin power = %v, want %v (2 modes of %v)", res.P[peakBin]*float64(res.Modes[peakBin]), 2*wantP, wantP)
	}
}

// Random (Poisson) particles have shot-noise power ~ V/N, flat in k.
func TestMeasureShotNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 20000
	box := 100.0
	p := nbody.NewParticles(n)
	for i := 0; i < n; i++ {
		p.X[i] = rng.Float64() * box
		p.Y[i] = rng.Float64() * box
		p.Z[i] = rng.Float64() * box
	}
	res, err := Measure(p, box, 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := box * box * box / float64(n)
	// Large-scale bins: CIC suppression is mild there.
	for b := 0; b < 3; b++ {
		if res.Modes[b] == 0 {
			continue
		}
		ratio := res.P[b] / want
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("bin %d: shot noise ratio = %v (P=%v, want~%v)", b, ratio, res.P[b], want)
		}
	}
}

func TestMeasureBinsAreOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := nbody.NewParticles(1000)
	for i := 0; i < 1000; i++ {
		p.X[i] = rng.Float64() * 50
		p.Y[i] = rng.Float64() * 50
		p.Z[i] = rng.Float64() * 50
	}
	res, err := Measure(p, 50, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for b, k := range res.K {
		if res.Modes[b] == 0 {
			continue
		}
		if k <= prev {
			t.Errorf("bin %d mean k %v not increasing", b, k)
		}
		prev = k
	}
}

// The distributed measurement must equal the serial one exactly, for any
// rank count.
func TestMeasureParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	box := 50.0
	all := nbody.NewParticles(2000)
	for i := 0; i < all.N(); i++ {
		all.X[i] = rng.Float64() * box
		all.Y[i] = rng.Float64() * box
		all.Z[i] = rng.Float64() * box
	}
	want, err := Measure(all, box, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 3, 4} {
		results := make([]*Result, ranks)
		err := mpi.RunRanks(ranks, func(c *mpi.Comm) error {
			var idx []int
			for i := 0; i < all.N(); i++ {
				if nbody.SlabOwner(all.X[i], c.Size(), box) == c.Rank() {
					idx = append(idx, i)
				}
			}
			res, err := MeasureParallel(c, all.Select(idx), box, 16, 6)
			if err != nil {
				return err
			}
			results[c.Rank()] = res
			return nil
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		for rank, res := range results {
			for b := range want.P {
				if math.Abs(res.P[b]-want.P[b]) > 1e-9*(1+math.Abs(want.P[b])) {
					t.Fatalf("ranks=%d rank=%d bin %d: %v vs %v", ranks, rank, b, res.P[b], want.P[b])
				}
				if res.Modes[b] != want.Modes[b] {
					t.Fatalf("ranks=%d: mode count differs in bin %d", ranks, b)
				}
			}
		}
	}
}

func TestMeasureParallelValidation(t *testing.T) {
	err := mpi.RunRanks(2, func(c *mpi.Comm) error {
		_, err := MeasureParallel(c, nbody.NewParticles(0), 10, 16, 0)
		if err == nil {
			return fmt.Errorf("expected nBins error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// One Meter, reused across particle sets and grids, must return what
// Measure returns on each, bit for bit, and keep its grid and cube while
// ng and box stay the same.
func TestMeterMatchesMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	uniform, clustered := nbody.NewParticles(2000), nbody.NewParticles(0)
	for i := 0; i < uniform.N(); i++ {
		uniform.X[i], uniform.Y[i], uniform.Z[i] = rng.Float64()*50, rng.Float64()*50, rng.Float64()*50
	}
	for i := 0; i < 3000; i++ {
		c := float64(i%3) * 15
		clustered.Append(c+rng.NormFloat64(), c+rng.NormFloat64(), 10+rng.NormFloat64(), 0, 0, 0, int64(i))
	}
	var m Meter
	for _, tc := range []struct {
		p      *nbody.Particles
		box    float64
		ng     int
		reused bool
	}{
		{uniform, 50, 16, false},
		{clustered, 50, 16, true},
		{clustered, 40, 16, false},
		{uniform, 40, 32, false},
		{clustered, 40, 32, true},
		{uniform, 50, 16, false},
	} {
		before := m.g
		got, err := m.Measure(tc.p, tc.box, tc.ng, 6)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Measure(tc.p, tc.box, tc.ng, 6)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%d particles, ng %d, box %g", tc.p.N(), tc.ng, tc.box)
		if !sameBits(got.K, want.K) || !sameBits(got.P, want.P) || fmt.Sprint(got.Modes) != fmt.Sprint(want.Modes) {
			t.Errorf("%s: Meter gives %v, Measure %v", name, got, want)
		}
		if reused := m.g == before; reused != tc.reused {
			t.Errorf("%s: grid reused %v, want %v", name, reused, tc.reused)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
