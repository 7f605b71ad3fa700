package halo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kdtree"
	"repro/internal/nbody"
	"repro/internal/periodic"
)

// TotalParticlesInHalos sums member counts over all halos.
func (c *Catalog) TotalParticlesInHalos() int {
	total := 0
	for i := range c.Halos {
		total += c.Halos[i].Count()
	}
	return total
}

// cluster appends n particles in a tight ball around (cx, cy, cz).
func cluster(p *nbody.Particles, n int, cx, cy, cz, radius float64, rng *rand.Rand, tagBase int64) {
	for i := 0; i < n; i++ {
		p.Append(
			cx+(rng.Float64()-0.5)*radius,
			cy+(rng.Float64()-0.5)*radius,
			cz+(rng.Float64()-0.5)*radius,
			0, 0, 0, tagBase+int64(i))
	}
}

func TestDisjointSetBasics(t *testing.T) {
	d := NewDisjointSet(5)
	same := func(a, b int) bool { return d.Find(a) == d.Find(b) }
	if same(0, 1) {
		t.Error("fresh sets should differ")
	}
	d.Union(0, 1)
	d.Union(2, 3)
	if !same(0, 1) || !same(2, 3) || same(1, 2) {
		t.Error("union results wrong")
	}
	if r := d.Union(1, 3); !same(0, 3) || r != d.Find(0) {
		t.Error("transitive union failed")
	}
	if g := d.Groups(1); len(g) != 2 || len(g[0]) != 4 || len(g[1]) != 1 {
		t.Errorf("groups = %v, want sizes 4 and 1", g)
	}
}

func TestDisjointSetGroups(t *testing.T) {
	d := NewDisjointSet(6)
	d.Union(0, 2)
	d.Union(2, 4)
	d.Union(1, 5)
	groups := d.Groups(2)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if groups[0][0] != 0 || len(groups[0]) != 3 {
		t.Errorf("first group = %v", groups[0])
	}
	if groups[1][0] != 1 || len(groups[1]) != 2 {
		t.Errorf("second group = %v", groups[1])
	}
	if got := d.Groups(3); len(got) != 1 {
		t.Errorf("minSize=3 groups = %v", got)
	}
}

func TestFOFValidation(t *testing.T) {
	p := nbody.NewParticles(0)
	p.Append(1, 1, 1, 0, 0, 0, 0)
	if _, err := FOF(p, 10, Options{LinkingLength: 0, MinSize: 1}); err == nil {
		t.Error("expected linking-length error")
	}
	if _, err := FOF(p, 10, Options{LinkingLength: 0.2, MinSize: 0}); err == nil {
		t.Error("expected min-size error")
	}
}

func TestFOFFindsSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := nbody.NewParticles(0)
	cluster(p, 50, 2, 2, 2, 0.1, rng, 0)
	cluster(p, 30, 8, 8, 8, 0.1, rng, 1000)
	cluster(p, 10, 5, 2, 7, 0.1, rng, 2000)
	cat, err := FOF(p, 10, Options{LinkingLength: 0.2, MinSize: 5, Periodic: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Halos) != 3 {
		t.Fatalf("found %d halos, want 3", len(cat.Halos))
	}
	// Sorted by size descending.
	if cat.Halos[0].Count() != 50 || cat.Halos[1].Count() != 30 || cat.Halos[2].Count() != 10 {
		t.Errorf("sizes = %d %d %d", cat.Halos[0].Count(), cat.Halos[1].Count(), cat.Halos[2].Count())
	}
	// Halo tags are the min member tags.
	if cat.Halos[0].Tag != 0 || cat.Halos[1].Tag != 1000 || cat.Halos[2].Tag != 2000 {
		t.Errorf("tags = %d %d %d", cat.Halos[0].Tag, cat.Halos[1].Tag, cat.Halos[2].Tag)
	}
	// Centers of mass near cluster centres.
	c := cat.Halos[0].Center
	if dist2(c, [3]float64{2, 2, 2}) > 0.01 {
		t.Errorf("largest halo center = %v", c)
	}
	if cat.LargestCount() != 50 {
		t.Errorf("LargestCount = %d", cat.LargestCount())
	}
	if cat.TotalParticlesInHalos() != 90 {
		t.Errorf("total in halos = %d", cat.TotalParticlesInHalos())
	}
}

func dist2(a, b [3]float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func TestFOFMinSizeDiscardsSmallHalos(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := nbody.NewParticles(0)
	cluster(p, 100, 5, 5, 5, 0.1, rng, 0)
	// Isolated singles.
	for i := 0; i < 20; i++ {
		p.Append(rng.Float64()*0.5, float64(i)*0.45+1, 9.5, 0, 0, 0, int64(5000+i))
	}
	cat, err := FOF(p, 10, Options{LinkingLength: 0.15, MinSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Halos) != 1 {
		t.Fatalf("found %d halos, want only the big one", len(cat.Halos))
	}
}

// A chain of particles spaced just under the linking length is one halo;
// spaced just over, it fragments.
func TestFOFChainLinking(t *testing.T) {
	link := 0.2
	for _, spacing := range []float64{0.19, 0.21} {
		p := nbody.NewParticles(0)
		for i := 0; i < 20; i++ {
			p.Append(1+float64(i)*spacing, 5, 5, 0, 0, 0, int64(i))
		}
		cat, err := FOF(p, 10, Options{LinkingLength: link, MinSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		if spacing < link && len(cat.Halos) != 1 {
			t.Errorf("spacing %v: %d halos, want 1 chain", spacing, len(cat.Halos))
		}
		if spacing > link && len(cat.Halos) != 20 {
			t.Errorf("spacing %v: %d halos, want 20 singletons", spacing, len(cat.Halos))
		}
	}
}

// A halo straddling the periodic boundary is found whole with
// Periodic=true and split with Periodic=false.
func TestFOFPeriodicBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := 10.0
	p := nbody.NewParticles(0)
	for i := 0; i < 40; i++ {
		x := 9.9 + rng.Float64()*0.2 // straddles x=0
		if x >= box {
			x -= box
		}
		p.Append(x, 5+(rng.Float64()-0.5)*0.1, 5+(rng.Float64()-0.5)*0.1, 0, 0, 0, int64(i))
	}
	catP, err := FOF(p, box, Options{LinkingLength: 0.3, MinSize: 2, Periodic: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(catP.Halos) != 1 || catP.Halos[0].Count() != 40 {
		t.Errorf("periodic: %d halos largest %d, want 1 of 40", len(catP.Halos), catP.LargestCount())
	}
	catO, err := FOF(p, box, Options{LinkingLength: 0.3, MinSize: 2, Periodic: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(catO.Halos) < 2 {
		t.Errorf("open: %d halos, want the straddler split", len(catO.Halos))
	}
	// Periodic COM must sit at the boundary, not the box middle.
	cx := catP.Halos[0].Center[0]
	if cx > 1 && cx < 9 {
		t.Errorf("periodic COM x = %v, want near boundary", cx)
	}
}

// FOF and NaiveFOF must produce identical catalogs.
func TestFOFMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	box := 10.0
	p := nbody.NewParticles(0)
	for i := 0; i < 300; i++ {
		p.Append(rng.Float64()*box, rng.Float64()*box, rng.Float64()*box, 0, 0, 0, int64(i))
	}
	for _, periodic := range []bool{false, true} {
		o := Options{LinkingLength: 0.6, MinSize: 2, Periodic: periodic}
		fast, err := FOF(p, box, o)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NaiveFOF(p, box, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast.Halos) != len(slow.Halos) {
			t.Fatalf("periodic=%v: %d vs %d halos", periodic, len(fast.Halos), len(slow.Halos))
		}
		for i := range fast.Halos {
			if fast.Halos[i].Tag != slow.Halos[i].Tag || fast.Halos[i].Count() != slow.Halos[i].Count() {
				t.Fatalf("periodic=%v halo %d: (%d,%d) vs (%d,%d)", periodic, i,
					fast.Halos[i].Tag, fast.Halos[i].Count(), slow.Halos[i].Tag, slow.Halos[i].Count())
			}
		}
	}
}

// Property: random configurations give identical tree/naive catalogs.
func TestPropertyFOFMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		box := 5.0
		p := nbody.NewParticles(0)
		n := 60 + rng.Intn(60)
		for i := 0; i < n; i++ {
			p.Append(rng.Float64()*box, rng.Float64()*box, rng.Float64()*box, 0, 0, 0, int64(i))
		}
		o := Options{LinkingLength: 0.4, MinSize: 1, Periodic: true}
		fast, err1 := FOF(p, box, o)
		slow, err2 := NaiveFOF(p, box, o)
		if err1 != nil || err2 != nil || len(fast.Halos) != len(slow.Halos) {
			return false
		}
		for i := range fast.Halos {
			if fast.Halos[i].Tag != slow.Halos[i].Tag || fast.Halos[i].Count() != slow.Halos[i].Count() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every particle appears in at most one halo, and halo membership
// is closed under the linking relation (no member has an outside neighbour
// within the linking length — the defining FOF invariant).
func TestPropertyFOFPartitionAndClosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		box := 5.0
		p := nbody.NewParticles(0)
		for i := 0; i < 80; i++ {
			p.Append(rng.Float64()*box, rng.Float64()*box, rng.Float64()*box, 0, 0, 0, int64(i))
		}
		o := Options{LinkingLength: 0.5, MinSize: 1, Periodic: true}
		cat, err := FOF(p, box, o)
		if err != nil {
			return false
		}
		owner := make([]int, p.N())
		for i := range owner {
			owner[i] = -1
		}
		for hi := range cat.Halos {
			for _, i := range cat.Halos[hi].Indices {
				if owner[i] != -1 {
					return false // particle in two halos
				}
				owner[i] = hi
			}
		}
		b2 := o.LinkingLength * o.LinkingLength
		for i := 0; i < p.N(); i++ {
			for j := i + 1; j < p.N(); j++ {
				dx := periodic.MinImage(p.X[i]-p.X[j], box)
				dy := periodic.MinImage(p.Y[i]-p.Y[j], box)
				dz := periodic.MinImage(p.Z[i]-p.Z[j], box)
				if dx*dx+dy*dy+dz*dz <= b2 && owner[i] != owner[j] {
					return false // linked pair split across halos
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FOF's allocations must not grow with n. A 4k and a 32k set holding the
// same ten halos allocate alike beyond the k-d tree build, whose
// concurrent split allocates once per node above 2¹⁴ points; and no call
// allocates more than 35: the 27 of the serial self-join (the bench probe
// halo.fof_allocs) plus 8.
func TestFOFAllocationsIndependentOfN(t *testing.T) {
	const box = 100.0
	o := Options{LinkingLength: 0.2, MinSize: 20, Periodic: true}
	var beyondBuild [2]float64
	for k, n := range []int{4096, 32768} {
		rng := rand.New(rand.NewSource(1))
		p := nbody.NewParticles(0)
		for c := 0; c < 10; c++ {
			cluster(p, 100, 10+8*float64(c), 50, 50, 0.5, rng, 1000*int64(c))
		}
		for p.N() < n { // a background too sparse to link 20 particles
			p.Append(rng.Float64()*box, rng.Float64()*box, rng.Float64()*box, 0, 0, 0, int64(100000+p.N()))
		}
		cat, err := FOF(p, box, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(cat.Halos) != 10 {
			t.Fatalf("n=%d: %d halos, want the 10 clusters", n, len(cat.Halos))
		}
		fof := testing.AllocsPerRun(10, func() {
			if _, err := FOF(p, box, o); err != nil {
				t.Fatal(err)
			}
		})
		build := testing.AllocsPerRun(10, func() {
			if _, err := kdtree.Build(p.X, p.Y, p.Z, box, 0); err != nil {
				t.Fatal(err)
			}
		})
		if fof > 35 {
			t.Errorf("n=%d: FOF makes %v allocations, over 35", n, fof)
		}
		beyondBuild[k] = fof - build
	}
	if beyondBuild[0] != beyondBuild[1] {
		t.Errorf("allocations beyond the tree build: %v at n=4096, %v at n=32768", beyondBuild[0], beyondBuild[1])
	}
}
