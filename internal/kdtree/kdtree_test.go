package kdtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomCloud(n int, box float64, seed int64) (x, y, z []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Float64() * box
		y[i] = rng.Float64() * box
		z[i] = rng.Float64() * box
	}
	return
}

// naiveWithin is the brute-force reference.
func naiveWithin(x, y, z []float64, qx, qy, qz, r, period float64) []int {
	var out []int
	r2 := r * r
	for i := range x {
		dx := wrapDelta(x[i]-qx, period)
		dy := wrapDelta(y[i]-qy, period)
		dz := wrapDelta(z[i]-qz, period)
		if dx*dx+dy*dy+dz*dz <= r2 {
			out = append(out, i)
		}
	}
	return out
}

func wrapDelta(d, period float64) float64 {
	if period > 0 {
		d -= period * math.Round(d/period)
	}
	return d
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]float64{1}, []float64{1, 2}, []float64{1}, 0, 4); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := Build(nil, nil, nil, -1, 4); err == nil {
		t.Error("expected negative period error")
	}
	tr, err := Build(nil, nil, nil, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.x) != 0 {
		t.Errorf("N = %d", len(tr.x))
	}
	tr.VisitWithin(0, 0, 0, 1, func(int) bool { t.Error("visited in empty tree"); return true })
}

func TestWithinMatchesBruteForceOpen(t *testing.T) {
	x, y, z := randomCloud(500, 10, 1)
	tr, err := Build(x, y, z, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 50; q++ {
		qx, qy, qz := rng.Float64()*10, rng.Float64()*10, rng.Float64()*10
		r := rng.Float64() * 3
		got := tr.Within(qx, qy, qz, r)
		want := naiveWithin(x, y, z, qx, qy, qz, r, 0)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: mismatch at %d", q, i)
			}
		}
	}
}

func TestWithinMatchesBruteForcePeriodic(t *testing.T) {
	box := 10.0
	x, y, z := randomCloud(400, box, 3)
	tr, err := Build(x, y, z, box, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 50; q++ {
		// Queries near the boundary exercise wrapping.
		qx, qy, qz := rng.Float64()*0.5, rng.Float64()*box, box-rng.Float64()*0.5
		r := rng.Float64() * 2
		got := tr.Within(qx, qy, qz, r)
		want := naiveWithin(x, y, z, qx, qy, qz, r, box)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %v, want %v", q, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: mismatch at %d", q, i)
			}
		}
	}
}

func TestVisitWithinEarlyStop(t *testing.T) {
	x, y, z := randomCloud(100, 5, 7)
	tr, _ := Build(x, y, z, 0, 4)
	count := 0
	tr.VisitWithin(2.5, 2.5, 2.5, 10, func(int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("visited %d, want early stop at 5", count)
	}
}

func TestDuplicatePoints(t *testing.T) {
	// Many identical points must not break construction or queries.
	n := 100
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	for i := range x {
		x[i], y[i], z[i] = 1, 2, 3
	}
	tr, err := Build(x, y, z, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Within(1, 2, 3, 0.001)
	if len(got) != n {
		t.Errorf("found %d duplicates, want %d", len(got), n)
	}
}

// Property: Within results always match brute force for random clouds.
func TestPropertyWithinMatchesBruteForce(t *testing.T) {
	f := func(seed int64, rRaw uint8) bool {
		box := 8.0
		x, y, z := randomCloud(120, box, seed)
		r := float64(rRaw%40)/10 + 0.05
		tr, err := Build(x, y, z, box, 6)
		if err != nil {
			return false
		}
		got := tr.Within(4, 4, 4, r)
		want := naiveWithin(x, y, z, 4, 4, 4, r, box)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNthElement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		span := make([]int, n)
		for i := range span {
			span[i] = i
		}
		k := rng.Intn(n)
		nthElement(span, k, vals)
		pivot := vals[span[k]]
		for i := 0; i < k; i++ {
			if vals[span[i]] > pivot {
				t.Fatalf("trial %d: element %d above pivot", trial, i)
			}
		}
		for i := k + 1; i < n; i++ {
			if vals[span[i]] < pivot {
				t.Fatalf("trial %d: element %d below pivot", trial, i)
			}
		}
	}
}

// PairsWithin's allocations do not depend on how many joins earlier,
// overlapping calls left in the free list: a serial caller gets back the
// join whose buffers it grew, not each fresh one in turn.
func TestPairsWithinAllocationsIndependentOfFreeList(t *testing.T) {
	x, y, z := randomCloud(4096, 100, 1)
	tr, err := Build(x, y, z, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	measure := func() float64 {
		return testing.AllocsPerRun(10, func() {
			tr.PairsWithin(2, func(a, b []int) {}, func(i, j int) {})
		})
	}
	want := measure()
	for i := 0; i < 8; i++ {
		joins.put(new(join))
	}
	if got := measure(); got != want {
		t.Errorf("PairsWithin allocates %v with 8 fresh joins kept, %v with none", got, want)
	}
}
