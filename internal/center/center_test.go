package center

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dparallel"
)

// plummerish generates a centrally concentrated cluster: the density peak
// (and hence the potential minimum) sits near the origin.
func plummerish(n int, seed int64) (x, y, z []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	for i := 0; i < n; i++ {
		r := math.Pow(rng.Float64(), 2) * 3 // concentrated toward r=0
		theta := math.Acos(2*rng.Float64() - 1)
		phi := 2 * math.Pi * rng.Float64()
		x[i] = r * math.Sin(theta) * math.Cos(phi)
		y[i] = r * math.Sin(theta) * math.Sin(phi)
		z[i] = r * math.Cos(theta)
	}
	return
}

func TestPotentialPairSymmetryAndValue(t *testing.T) {
	x := []float64{0, 3}
	y := []float64{0, 4}
	z := []float64{0, 0}
	// Distance 5, mass 2, softening 1 -> pot = -2/6.
	p0 := Potential(x, y, z, 0, 2, 1)
	p1 := Potential(x, y, z, 1, 2, 1)
	want := -2.0 / 6.0
	if math.Abs(p0-want) > 1e-12 || math.Abs(p1-want) > 1e-12 {
		t.Errorf("pot = %v, %v, want %v", p0, p1, want)
	}
}

func TestPotentialSkipsSelf(t *testing.T) {
	x := []float64{1}
	y := []float64{2}
	z := []float64{3}
	if p := Potential(x, y, z, 0, 1, 0); p != 0 {
		t.Errorf("single particle potential = %v, want 0", p)
	}
}

func TestBruteForceValidation(t *testing.T) {
	if _, err := BruteForce(nil, nil, nil, Options{}); err == nil {
		t.Error("expected error for empty set")
	}
	if _, err := BruteForce([]float64{1}, []float64{1, 2}, []float64{1}, Options{}); err == nil {
		t.Error("expected length error")
	}
}

func TestAStarValidation(t *testing.T) {
	if _, err := AStar(nil, nil, nil, Options{}); err == nil {
		t.Error("expected error for empty set")
	}
	if _, err := AStar([]float64{1}, []float64{1, 2}, []float64{1}, Options{}); err == nil {
		t.Error("expected length error")
	}
}

// The MBP of a dense clump plus distant outliers must be inside the clump.
func TestBruteForceFindsClumpCenter(t *testing.T) {
	x, y, z := plummerish(200, 1)
	// Add isolated far particles.
	x = append(x, 100, -100)
	y = append(y, 100, -100)
	z = append(z, 100, -100)
	res, err := BruteForce(x, y, z, Options{Softening: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	r := math.Sqrt(x[res.Index]*x[res.Index] + y[res.Index]*y[res.Index] + z[res.Index]*z[res.Index])
	if r > 1.5 {
		t.Errorf("MBP at radius %v, want inside the clump", r)
	}
	if res.Evaluated != len(x) {
		t.Errorf("brute force evaluated %d, want all %d", res.Evaluated, len(x))
	}
}

// A* and brute force must agree exactly on the argmin.
func TestAStarMatchesBruteForce(t *testing.T) {
	for _, n := range []int{10, 100, 500} {
		x, y, z := plummerish(n, int64(n))
		o := Options{Softening: 1e-3, GroupLeaf: 16}
		bf, err := BruteForce(x, y, z, o)
		if err != nil {
			t.Fatal(err)
		}
		as, err := AStar(x, y, z, o)
		if err != nil {
			t.Fatal(err)
		}
		if as.Index != bf.Index {
			t.Errorf("n=%d: A* index %d (pot %v), brute %d (pot %v)",
				n, as.Index, as.Potential, bf.Index, bf.Potential)
		}
		if math.Abs(as.Potential-bf.Potential) > 1e-9 {
			t.Errorf("n=%d: potentials differ: %v vs %v", n, as.Potential, bf.Potential)
		}
	}
}

// A* should evaluate far fewer exact potentials than n on concentrated
// configurations — that is its entire reason for existing.
func TestAStarPrunes(t *testing.T) {
	n := 2000
	x, y, z := plummerish(n, 7)
	res, err := AStar(x, y, z, Options{Softening: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated >= n/2 {
		t.Errorf("A* evaluated %d of %d, expected substantial pruning", res.Evaluated, n)
	}
	t.Logf("A* evaluated %d of %d (%.1f%%)", res.Evaluated, n, 100*float64(res.Evaluated)/float64(n))
}

// All backends must return the same MBP.
func TestBruteForceBackendsAgree(t *testing.T) {
	x, y, z := plummerish(300, 3)
	var first Result
	for bi, b := range []dparallel.Backend{
		dparallel.Serial{},
		dparallel.Parallel{NumWorkers: 4, MinChunk: 16},
	} {
		res, err := BruteForce(x, y, z, Options{Softening: 1e-3, Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		if bi == 0 {
			first = res
			continue
		}
		if res.Index != first.Index {
			t.Errorf("backend %s: index %d != %d", b.Name(), res.Index, first.Index)
		}
	}
}

func TestZeroSofteningCoincidentParticles(t *testing.T) {
	// Two coincident particles with zero softening: infinite binding. The
	// finders must not panic and must pick one of the pair.
	x := []float64{1, 1, 5}
	y := []float64{1, 1, 5}
	z := []float64{1, 1, 5}
	bf, err := BruteForce(x, y, z, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bf.Index != 0 && bf.Index != 1 {
		t.Errorf("brute index = %d", bf.Index)
	}
	as, err := AStar(x, y, z, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if as.Index != 0 && as.Index != 1 {
		t.Errorf("A* index = %d", as.Index)
	}
}

func TestUnwrapStraddlingHalo(t *testing.T) {
	box := 10.0
	x := []float64{9.8, 0.1, 9.9}
	y := []float64{5, 5, 5}
	z := []float64{5, 5, 5}
	ux, uy, uz := Unwrap(x, y, z, []int{0, 1, 2}, box)
	// All unwrapped x must be within ~0.5 of the reference 9.8.
	for i, v := range ux {
		if math.Abs(v-9.8) > 0.5 {
			t.Errorf("ux[%d] = %v", i, v)
		}
	}
	if uy[1] != 5 || uz[2] != 5 {
		t.Error("y/z should be unchanged")
	}
	// Empty selection.
	ex, ey, ez := Unwrap(x, y, z, nil, box)
	if len(ex) != 0 || len(ey) != 0 || len(ez) != 0 {
		t.Error("expected empty output")
	}
}

// Property: A* equals brute force on random configurations.
func TestPropertyAStarMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		x := make([]float64, n)
		y := make([]float64, n)
		z := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * 10
			y[i] = rng.Float64() * 10
			z[i] = rng.Float64() * 10
		}
		o := Options{Softening: 1e-2, GroupLeaf: 8}
		bf, err1 := BruteForce(x, y, z, o)
		as, err2 := AStar(x, y, z, o)
		if err1 != nil || err2 != nil {
			return false
		}
		// Argmin may legitimately differ only when potentials tie.
		return as.Index == bf.Index || math.Abs(as.Potential-bf.Potential) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
