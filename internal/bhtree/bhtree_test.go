package bhtree

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

// KNearest returns the k nearest particle indices to (px,py,pz) and their
// squared distances, nearest first, using a best-first tree descent: one
// search per query, the oracle of the shared neighbour pass in Density.
func (t *Tree) KNearest(px, py, pz float64, k int) (idx []int, dist2 []float64) {
	if k <= 0 || len(t.nodes) == 0 {
		return nil, nil
	}
	m := min(k, t.N())
	h := make(maxHeap, 0, m)
	out := t.nearest(px, py, pz, k, &h, make([]nbr, m))
	idx = make([]int, len(out))
	dist2 = make([]float64, len(out))
	for i, nb := range out {
		idx[i] = nb.idx
		dist2[i] = nb.d2
	}
	return idx, dist2
}

func randomCloud(n int, seed int64) (x, y, z []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Float64() * 10
		y[i] = rng.Float64() * 10
		z[i] = rng.Float64() * 10
	}
	return
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]float64{1}, []float64{1, 2}, []float64{1}, 1, 8); err == nil {
		t.Error("expected length error")
	}
	if _, err := Build([]float64{1}, []float64{1}, []float64{1}, 0, 8); err == nil {
		t.Error("expected mass error")
	}
	tr, err := Build(nil, nil, nil, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 0 {
		t.Errorf("N = %d", tr.N())
	}
	if p := tr.ApproxPotential(0, 0, 0, -1, 0.5, 0.01); p != 0 {
		t.Errorf("empty tree potential = %v", p)
	}
}

func TestBuildCoincidentPoints(t *testing.T) {
	n := 50
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	tr, err := Build(x, y, z, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := tr.KNearest(0, 0, 0, 10)
	if len(idx) != 10 {
		t.Errorf("KNearest on coincident points returned %d", len(idx))
	}
}

func TestKNearestMatchesBruteForce(t *testing.T) {
	x, y, z := randomCloud(400, 1)
	tr, err := Build(x, y, z, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 30; q++ {
		px, py, pz := rng.Float64()*10, rng.Float64()*10, rng.Float64()*10
		k := 1 + rng.Intn(20)
		_, d2 := tr.KNearest(px, py, pz, k)
		// Brute force distances.
		all := make([]float64, len(x))
		for i := range x {
			dx, dy, dz := x[i]-px, y[i]-py, z[i]-pz
			all[i] = dx*dx + dy*dy + dz*dz
		}
		sort.Float64s(all)
		for i := 0; i < k; i++ {
			if math.Abs(d2[i]-all[i]) > 1e-12 {
				t.Fatalf("query %d: dist[%d] = %v, want %v", q, i, d2[i], all[i])
			}
		}
	}
}

func exactPotential(x, y, z []float64, i int, mass, soft float64) float64 {
	pot := 0.0
	for j := range x {
		if j == i {
			continue
		}
		dx, dy, dz := x[j]-x[i], y[j]-y[i], z[j]-z[i]
		pot -= mass / (math.Sqrt(dx*dx+dy*dy+dz*dz) + soft)
	}
	return pot
}

// The BH approximation must converge to the exact potential as theta -> 0
// and stay within a few percent at theta = 0.5.
func TestApproxPotentialAccuracy(t *testing.T) {
	x, y, z := randomCloud(500, 3)
	tr, err := Build(x, y, z, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	soft := 0.01
	for _, i := range []int{0, 100, 499} {
		exact := exactPotential(x, y, z, i, 2, soft)
		approx := tr.ApproxPotential(x[i], y[i], z[i], i, 0.5, soft)
		if relErr := math.Abs(approx-exact) / math.Abs(exact); relErr > 0.05 {
			t.Errorf("particle %d: theta=0.5 rel err %v (approx %v, exact %v)", i, relErr, approx, exact)
		}
		tight := tr.ApproxPotential(x[i], y[i], z[i], i, 0.05, soft)
		if relErr := math.Abs(tight-exact) / math.Abs(exact); relErr > 0.005 {
			t.Errorf("particle %d: theta=0.05 rel err %v", i, relErr)
		}
	}
}

func TestSPHKernelProperties(t *testing.T) {
	h := 2.0
	if SPHKernel(0, 0) != 0 {
		t.Error("zero h should give 0")
	}
	// Compact support.
	if SPHKernel(2.0, h) != 0 || SPHKernel(3, h) != 0 {
		t.Error("kernel should vanish at r >= h")
	}
	// Monotonically decreasing on [0, h).
	prev := math.Inf(1)
	for r := 0.0; r < h; r += 0.05 {
		w := SPHKernel(r, h)
		if w > prev+1e-12 {
			t.Fatalf("kernel increased at r=%v", r)
		}
		if w < 0 {
			t.Fatalf("negative kernel at r=%v", r)
		}
		prev = w
	}
	// Unit integral: 4π ∫ W r² dr = 1.
	sum := 0.0
	dr := h / 4000
	for r := dr / 2; r < h; r += dr {
		sum += SPHKernel(r, h) * r * r * dr
	}
	sum *= 4 * math.Pi
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("kernel integral = %v, want 1", sum)
	}
}

func TestDensityValidation(t *testing.T) {
	x, y, z := randomCloud(10, 4)
	tr, _ := Build(x, y, z, 1, 4)
	if _, _, err := tr.Density(DensityOptions{K: 1}); err == nil {
		t.Error("expected K error")
	}
	// K larger than n clamps.
	rho, nbrs, err := tr.Density(DensityOptions{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rho) != 10 || len(nbrs) != 10*10 {
		t.Errorf("len = %d, %d neighbours", len(rho), len(nbrs))
	}
}

// A uniform cloud should give roughly uniform densities near the true
// number density, and a dense clump should register higher density than
// the diffuse background around it.
func TestDensityContrast(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x, y, z []float64
	// Diffuse background: 500 in a 10-cube.
	for i := 0; i < 500; i++ {
		x = append(x, rng.Float64()*10)
		y = append(y, rng.Float64()*10)
		z = append(z, rng.Float64()*10)
	}
	// Clump: 100 in a 0.5-cube at the centre.
	for i := 0; i < 100; i++ {
		x = append(x, 5+rng.Float64()*0.5)
		y = append(y, 5+rng.Float64()*0.5)
		z = append(z, 5+rng.Float64()*0.5)
	}
	for _, useKernel := range []bool{false, true} {
		tr, err := Build(x, y, z, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		rho, _, err := tr.Density(DensityOptions{K: 16, UseKernel: useKernel})
		if err != nil {
			t.Fatal(err)
		}
		bgMean, clumpMean := 0.0, 0.0
		for i := 0; i < 500; i++ {
			bgMean += rho[i]
		}
		for i := 500; i < 600; i++ {
			clumpMean += rho[i]
		}
		bgMean /= 500
		clumpMean /= 100
		if clumpMean < 20*bgMean {
			t.Errorf("useKernel=%v: clump density %v not ≫ background %v", useKernel, clumpMean, bgMean)
		}
	}
}

// refDensity is Density as it was before the pass was shared and parallel:
// one KNearest per particle, serially, with the same estimator written out.
func refDensity(tr *Tree, o DensityOptions) (rho []float64, nbrs [][]int) {
	k := min(o.K, tr.N())
	for i := 0; i < tr.N(); i++ {
		idx, d2 := tr.KNearest(tr.x[i], tr.y[i], tr.z[i], k)
		h := math.Sqrt(d2[len(d2)-1])
		if h == 0 {
			h = 1e-12
		}
		r := 0.0
		if o.UseKernel {
			for _, j := range d2 {
				r += tr.mass * SPHKernel(math.Sqrt(j), h)
			}
		} else {
			r = tr.mass * float64(len(idx)) / (4.0 / 3.0 * math.Pi * h * h * h)
		}
		rho = append(rho, r)
		nbrs = append(nbrs, idx)
	}
	return rho, nbrs
}

// The shared density pass lists, per particle, the neighbours KNearest
// finds and the density it implies, bit for bit, on either side of
// dparallel's 1024-particle chunk floor, with ties (coincident points) and
// with K clamped to the particle count.
func TestDensityMatchesPerParticleKNearest(t *testing.T) {
	cases := []struct {
		name string
		n, k int
		leaf int
	}{
		{"small", 300, 16, 8},
		{"chunked", 5000, 16, 8},
		{"coincident", 3000, 24, 4},
		{"K>=n", 40, 64, 8},
		{"K=n", 33, 33, 8},
	}
	for _, c := range cases {
		x, y, z := randomCloud(c.n, int64(c.n))
		if c.name == "coincident" {
			// Every point sits on one of 64 lattice sites, ~47 per site:
			// each search ends among equal distances.
			for i := range x {
				x[i], y[i], z[i] = math.Floor(x[i]/2.5), math.Floor(y[i]/2.5), math.Floor(z[i]/2.5)
			}
		}
		tr, err := Build(x, y, z, 1.5, c.leaf)
		if err != nil {
			t.Fatal(err)
		}
		for _, useKernel := range []bool{false, true} {
			o := DensityOptions{K: c.k, UseKernel: useKernel}
			rho, nbrs, err := tr.Density(o)
			if err != nil {
				t.Fatal(err)
			}
			wantRho, wantNbrs := refDensity(tr, o)
			k := min(c.k, c.n)
			if len(rho) != c.n || len(nbrs) != c.n*k {
				t.Fatalf("%s kernel=%v: %d densities and %d neighbours, want %d and %d", c.name, useKernel, len(rho), len(nbrs), c.n, c.n*k)
			}
			for i := range rho {
				if math.Float64bits(rho[i]) != math.Float64bits(wantRho[i]) {
					t.Fatalf("%s kernel=%v: rho[%d] = %v, want %v", c.name, useKernel, i, rho[i], wantRho[i])
				}
				for j, want := range wantNbrs[i] {
					if got := int(nbrs[i*k+j]); got != want {
						t.Fatalf("%s kernel=%v: particle %d neighbour %d is %d, want %d", c.name, useKernel, i, j, got, want)
					}
				}
			}
		}
	}
}

// The density pass allocates its two outputs, its chunk body and one heap
// and result buffer per chunk, however many particles it searches for.
func TestDensityAllocationsPerChunk(t *testing.T) {
	x, y, z := randomCloud(5000, 9)
	tr, err := Build(x, y, z, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	limit := float64(3 + 2*runtime.GOMAXPROCS(0))
	if allocs := testing.AllocsPerRun(5, func() { tr.Density(DensityOptions{K: 16}) }); allocs > limit {
		t.Errorf("Density allocates %v times over 5000 particles, want <= %v", allocs, limit)
	}
}

// Property: KNearest distances are sorted and counts correct.
func TestPropertyKNearestSorted(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		x, y, z := randomCloud(100, seed)
		tr, err := Build(x, y, z, 1, 8)
		if err != nil {
			return false
		}
		k := int(kRaw%50) + 1
		idx, d2 := tr.KNearest(5, 5, 5, k)
		if len(idx) != k || len(d2) != k {
			return false
		}
		for i := 1; i < len(d2); i++ {
			if d2[i] < d2[i-1] {
				return false
			}
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
