package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// cloud is one named point set of the differential tests.
type cloud struct {
	name    string
	x, y, z []float64
}

func (c *cloud) add(x, y, z float64) {
	c.x, c.y, c.z = append(c.x, x), append(c.y, y), append(c.z, z)
}

// oracleClouds returns random and degenerate point sets inside [0, box):
// the shapes a median split, a bounding box or a periodic wrap can get
// wrong.
func oracleClouds(rng *rand.Rand, box float64) []cloud {
	uniform := cloud{name: "uniform"}
	for i := 0; i < 150+rng.Intn(100); i++ {
		uniform.add(rng.Float64()*box, rng.Float64()*box, rng.Float64()*box)
	}
	few := cloud{name: "fewer than a leaf"}
	for i := 0; i < 1+rng.Intn(4); i++ {
		few.add(rng.Float64()*box, rng.Float64()*box, rng.Float64()*box)
	}
	coincident := cloud{name: "all coincident"}
	for i := 0; i < 40; i++ {
		coincident.add(1, 2, 3)
	}
	// Unit lattice, every fourth site occupied twice: equal coordinates
	// along every axis and separations of exactly 1, √2 and 0.
	lattice := cloud{name: "lattice with duplicates"}
	for i := 0; i < 5*5*5; i++ {
		x, y, z := float64(i%5), float64(i/5%5), float64(i/25)
		lattice.add(x, y, z)
		if i%4 == 0 {
			lattice.add(x, y, z)
		}
	}
	straddle := cloud{name: "blob straddling x = 0/box"}
	for i := 0; i < 120; i++ {
		x := math.Mod(rng.NormFloat64()*0.4+box, box)
		straddle.add(x, box/2+rng.NormFloat64()*0.4, box/2+rng.NormFloat64()*0.4)
	}
	clumps := cloud{name: "clumps"}
	for c := 0; c < 4; c++ {
		cx, cy, cz := rng.Float64()*box, rng.Float64()*box, rng.Float64()*box
		for i := 0; i < 60; i++ {
			clumps.add(
				math.Mod(cx+rng.NormFloat64()*0.15+box, box),
				math.Mod(cy+rng.NormFloat64()*0.15+box, box),
				math.Mod(cz+rng.NormFloat64()*0.15+box, box))
		}
	}
	return []cloud{{name: "empty"}, uniform, few, coincident, lattice, straddle, clumps}
}

// joinedPairs collects what PairsWithin reports, bulk spans expanded, and
// fails the test on a pair reported twice or with itself.
func joinedPairs(t *testing.T, id string, tr *Tree, r float64, useBulk bool) map[[2]int]bool {
	got := map[[2]int]bool{}
	report := func(i, j int) {
		if i > j {
			i, j = j, i
		}
		if i == j || got[[2]int{i, j}] {
			t.Fatalf("%s: pair (%d,%d) reported twice or with itself", id, i, j)
		}
		got[[2]int{i, j}] = true
	}
	var bulk func(a, b []int)
	if useBulk {
		bulk = func(a, b []int) {
			for k, i := range a {
				others := b
				if b == nil {
					others = a[k+1:]
				}
				for _, j := range others {
					report(i, j)
				}
			}
		}
	}
	tr.PairsWithin(r, bulk, report)
	return got
}

// PairsWithin must report exactly the O(n²) pair set under Dist2 — bulk
// spans expanded — and no unordered pair twice, with and without the bulk
// tests.
func TestPairsWithinMatchesBruteForce(t *testing.T) {
	const box = 8.0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range oracleClouds(rng, box) {
			for _, period := range []float64{0, box} {
				for _, r := range []float64{0.05 + rng.Float64()*0.5, 1, math.Sqrt2, 3} {
					for _, leaf := range []int{0, 1, 3} {
						tr, err := Build(c.x, c.y, c.z, period, leaf)
						if err != nil {
							t.Fatal(err)
						}
						want := map[[2]int]bool{}
						for i := range c.x {
							for j := i + 1; j < len(c.x); j++ {
								if tr.Dist2(j, c.x[i], c.y[i], c.z[i]) <= r*r {
									want[[2]int{i, j}] = true
								}
							}
						}
						for _, useBulk := range []bool{true, false} {
							id := fmt.Sprintf("seed %d %s period=%v r=%v leaf=%d bulk=%v", seed, c.name, period, r, leaf, useBulk)
							if got := joinedPairs(t, id, tr, r, useBulk); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: %d pairs, brute force has %d", id, len(got), len(want))
							}
						}
					}
				}
			}
		}
	}
}

// A radius beyond the root's diagonal must take the bulk path at the root:
// one call, no distance tests.
func TestPairsWithinUsesBulkPath(t *testing.T) {
	x, y, z := randomCloud(200, 10, 23)
	tr, err := Build(x, y, z, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	bulkCalls, bulkPoints, singles := 0, 0, 0
	tr.PairsWithin(100,
		func(a, b []int) { bulkCalls++; bulkPoints += len(a) + len(b) },
		func(i, j int) { singles++ })
	if bulkCalls != 1 || bulkPoints != 200 || singles != 0 {
		t.Errorf("bulk calls=%d points=%d singles=%d; a huge radius should engulf the root", bulkCalls, bulkPoints, singles)
	}
}

// refTree is the closure-based construction Build replaced (one less
// closure over a coord switch, a full bounding-box rescan per node, nodes
// grown by append), kept here as the oracle: Build must produce the same
// perm and the same nodes, bit for bit.
type refTree struct {
	x, y, z  []float64
	perm     []int
	nodes    []node
	leafSize int
}

func (t *refTree) coord(i, axis int) float64 {
	switch axis {
	case 0:
		return t.x[i]
	case 1:
		return t.y[i]
	default:
		return t.z[i]
	}
}

func (t *refTree) build(lo, hi, axis int) int {
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{lo: lo, hi: hi, left: -1, right: -1})
	nb := &t.nodes[idx]
	for a := 0; a < 3; a++ {
		nb.minB[a] = math.Inf(1)
		nb.maxB[a] = math.Inf(-1)
	}
	for _, p := range t.perm[lo:hi] {
		for a := 0; a < 3; a++ {
			c := t.coord(p, a)
			if c < nb.minB[a] {
				nb.minB[a] = c
			}
			if c > nb.maxB[a] {
				nb.maxB[a] = c
			}
		}
	}
	if hi-lo <= t.leafSize {
		return idx
	}
	span := t.perm[lo:hi]
	mid := len(span) / 2
	refNthElement(span, mid, func(a, b int) bool { return t.coord(a, axis) < t.coord(b, axis) })
	next := (axis + 1) % 3
	left := t.build(lo, lo+mid, next)
	right := t.build(lo+mid, hi, next)
	t.nodes[idx].left = left
	t.nodes[idx].right = right
	return idx
}

func refNthElement(span []int, k int, less func(a, b int) bool) {
	lo, hi := 0, len(span)-1
	for lo < hi {
		p := refPartition(span, lo, hi, less)
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

func refPartition(span []int, lo, hi int, less func(a, b int) bool) int {
	mid := (lo + hi) / 2
	if less(span[mid], span[lo]) {
		span[mid], span[lo] = span[lo], span[mid]
	}
	if less(span[hi], span[lo]) {
		span[hi], span[lo] = span[lo], span[hi]
	}
	if less(span[hi], span[mid]) {
		span[hi], span[mid] = span[mid], span[hi]
	}
	span[mid], span[hi] = span[hi], span[mid]
	pivot := span[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if less(span[j], pivot) {
			span[i], span[j] = span[j], span[i]
			i++
		}
	}
	span[i], span[hi] = span[hi], span[i]
	return i
}

func TestBuildMatchesClosureBuild(t *testing.T) {
	for _, n := range []int{1, 17, 1000, 32768, 100003} {
		for _, snapped := range []bool{false, true} {
			x, y, z := randomCloud(n, 16, int64(n))
			if snapped { // lattice sites, most of them occupied many times
				for i := range x {
					x[i], y[i], z[i] = math.Floor(x[i]), math.Floor(y[i]), math.Floor(z[i])
				}
			}
			for _, leaf := range []int{16, 3} {
				got, err := Build(x, y, z, 0, leaf)
				if err != nil {
					t.Fatal(err)
				}
				ref := &refTree{x: x, y: y, z: z, perm: make([]int, n), leafSize: leaf}
				for i := range ref.perm {
					ref.perm[i] = i
				}
				ref.build(0, n, 0)
				if !reflect.DeepEqual(got.perm, ref.perm) {
					t.Errorf("n=%d snapped=%v leaf=%d: perm differs from the closure build", n, snapped, leaf)
				}
				if !reflect.DeepEqual(got.nodes, ref.nodes) {
					t.Errorf("n=%d snapped=%v leaf=%d: nodes differ from the closure build", n, snapped, leaf)
				}
				if cap(got.nodes) != len(got.nodes) {
					t.Errorf("n=%d leaf=%d: %d nodes in room for %d; Build sizes nodes exactly", n, leaf, len(got.nodes), cap(got.nodes))
				}
			}
		}
	}
}
