package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/periodic"
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
	// Along each axis, pairs whose hull spans just under, exactly and just
	// over box/2 (the span at which the join stops taking minimum images),
	// and pairs that link only through the wrap, at 1, 0.25 and 1.5. A
	// linkPeriod that drops its factor 2 fails on them; one that opens at
	// exactly box/2 (> for >=), or a child pair that re-tests its hull
	// instead of inheriting 0, reports the same pairs in the same order:
	// MinImage(±box/2) = ∓box/2 squares alike, and child hulls lie inside
	// their parents'. So no oracle test can fail either of those two.
	half := cloud{name: "half-period hulls and wrap-only links"}
	pairs := [][2]float64{
		{1.25, math.Nextafter(box/2+1.25, 0)}, {1.5, box/2 + 1.5}, {1.75, math.Nextafter(box/2+1.75, box)},
		{0, box - 1}, {0.125, box - 0.125}, {0.25, box - 1.25},
	}
	for a := 0; a < 3; a++ {
		for k, pr := range pairs {
			for _, u := range pr {
				c := [3]float64{2 + 0.5*float64(k), 3 + 0.25*float64(k), 1 + 0.75*float64(k)}
				c[a] = u
				half.add(c[0], c[1], c[2])
			}
		}
	}
	return []cloud{{name: "empty"}, uniform, few, coincident, lattice, straddle, clumps, half}
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

// refJoinSelf, refJoinCross and refJoinPoint are the serial two-callback
// self-join PairsWithin replaced, with the box gap it pruned on (against
// the padded near2): the oracle of the order in which PairsWithin calls
// bulk and pair.
func refJoinSelf(t *Tree, na *node, r2, near2 float64, bulk func(a, b []int), pair func(i, j int)) {
	span := t.perm[na.lo:na.hi]
	switch {
	case bulk != nil && maxSep2(na, na) <= r2:
		bulk(span, nil)
	case na.left < 0:
		for k, i := range span {
			refJoinPoint(t, i, span[k+1:], r2, pair)
		}
	default:
		l, r := &t.nodes[na.left], &t.nodes[na.right]
		refJoinSelf(t, l, r2, near2, bulk, pair)
		refJoinSelf(t, r, r2, near2, bulk, pair)
		refJoinCross(t, l, r, r2, near2, bulk, pair)
	}
}

func refJoinCross(t *Tree, na, nb *node, r2, near2 float64, bulk func(a, b []int), pair func(i, j int)) {
	if refBoxGap2(t, na, nb) > near2 {
		return
	}
	switch {
	case bulk != nil && maxSep2(na, nb) <= r2:
		bulk(t.perm[na.lo:na.hi], t.perm[nb.lo:nb.hi])
	case na.left < 0 && nb.left < 0:
		for _, i := range t.perm[na.lo:na.hi] {
			refJoinPoint(t, i, t.perm[nb.lo:nb.hi], r2, pair)
		}
	case nb.left < 0 || (na.left >= 0 && na.hi-na.lo >= nb.hi-nb.lo):
		refJoinCross(t, &t.nodes[na.left], nb, r2, near2, bulk, pair)
		refJoinCross(t, &t.nodes[na.right], nb, r2, near2, bulk, pair)
	default:
		refJoinCross(t, na, &t.nodes[nb.left], r2, near2, bulk, pair)
		refJoinCross(t, na, &t.nodes[nb.right], r2, near2, bulk, pair)
	}
}

func refJoinPoint(t *Tree, i int, others []int, r2 float64, pair func(i, j int)) {
	xs, ys, zs, period := t.x, t.y, t.z, t.Period
	x, y, z := xs[i], ys[i], zs[i]
	for _, j := range others {
		dx, dy, dz := xs[j]-x, ys[j]-y, zs[j]-z
		if period > 0 {
			dx, dy, dz = periodic.MinImage(dx, period), periodic.MinImage(dy, period), periodic.MinImage(dz, period)
		}
		if dx*dx+dy*dy+dz*dz <= r2 {
			pair(i, j)
		}
	}
}

func refBoxGap2(t *Tree, na, nb *node) float64 {
	g2 := 0.0
	for a := 0; a < 3; a++ {
		lo, hi := na.minB[a], na.maxB[a]
		g := axisGapOpen(lo, hi, nb.minB[a], nb.maxB[a])
		if t.Period > 0 {
			if s := axisGapOpen(lo+t.Period, hi+t.Period, nb.minB[a], nb.maxB[a]); s < g {
				g = s
			}
			if s := axisGapOpen(lo-t.Period, hi-t.Period, nb.minB[a], nb.maxB[a]); s < g {
				g = s
			}
		}
		g2 += g * g
	}
	return g2
}

// joinSequence records every callback of one self-join in call order: a
// pair as i, j; a bulk call as -1, then each span as its length and
// members, or -2 for a nil span.
func joinSequence(tr *Tree, r float64, useBulk bool, join func(r float64, bulk func(a, b []int), pair func(i, j int))) []int {
	var seq []int
	var bulk func(a, b []int)
	if useBulk {
		bulk = func(a, b []int) {
			seq = append(seq, -1, len(a))
			seq = append(seq, a...)
			if b == nil {
				seq = append(seq, -2)
				return
			}
			seq = append(seq, len(b))
			seq = append(seq, b...)
		}
	}
	join(r, bulk, func(i, j int) { seq = append(seq, i, j) })
	return seq
}

func refPairsWithin(tr *Tree) func(r float64, bulk func(a, b []int), pair func(i, j int)) {
	return func(r float64, bulk func(a, b []int), pair func(i, j int)) {
		if len(tr.nodes) > 0 {
			near := r*(1+0x1p-40) + tr.Period*0x1p-40
			refJoinSelf(tr, &tr.nodes[0], r*r, near*near, bulk, pair)
		}
	}
}

// PairsWithin's tasks, per-point leaf filter and replay must hand bulk and
// pair the serial join's exact call sequence, element for element: random
// and lattice-snapped clouds (coincident points, separations of exactly r,
// across the periodic faces too), open and periodic, bulk on and off.
func TestPairsWithinSequenceMatchesSerial(t *testing.T) {
	const box = 16.0
	for _, n := range []int{1, 17, 1000, 32768, 100003} {
		spacing := box / math.Cbrt(float64(n))
		// A power of two near the spacing: snapped coordinates, their
		// differences and the radius are exact, and sites repeat.
		grid := math.Exp2(math.Floor(math.Log2(spacing)))
		for _, snapped := range []bool{false, true} {
			x, y, z := randomCloud(n, box, int64(n))
			radii := []float64{0.2 * spacing, spacing}
			if snapped {
				for i := range x {
					x[i], y[i], z[i] = math.Floor(x[i]/grid)*grid, math.Floor(y[i]/grid)*grid, math.Floor(z[i]/grid)*grid
				}
				radii = []float64{grid / 2, grid}
			}
			for _, period := range []float64{0, box} {
				tr, err := Build(x, y, z, period, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range radii {
					for _, useBulk := range []bool{true, false} {
						want := joinSequence(tr, r, useBulk, refPairsWithin(tr))
						got := joinSequence(tr, r, useBulk, tr.PairsWithin)
						if !slices.Equal(got, want) {
							t.Errorf("n=%d snapped=%v period=%v r=%v bulk=%v: %d sequence entries, serial join has %d",
								n, snapped, period, r, useBulk, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// boxDist2 with the tree's own period, the prune VisitWithin applies.
func (t *Tree) boxDist2(nb *node, x, y, z float64) float64 {
	return boxDist2(nb, x, y, z, t.Period)
}

// Across a periodic face a box gap can round above the Dist2 of the very
// pair it covers. Two points on opposite x faces, r set to exactly their
// separation: PairsWithin and VisitWithin must find every pair brute force
// Dist2 <= r² finds, and some cases must be ones a prune at r itself drops.
func TestPairsWithinExactRadiusAcrossPeriodicFace(t *testing.T) {
	const box = 64.0
	rng := rand.New(rand.NewSource(5))
	sensitive := 0
	for k := 0; k < 4000; k++ {
		y, z := rng.Float64()*box, rng.Float64()*box
		x := []float64{rng.Float64() * box / 100, box - rng.Float64()*box/100}
		tr, err := Build(x, []float64{y, y}, []float64{z, z}, box, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := math.Abs(periodic.MinImage(x[1]-x[0], box))
		var want []int
		if tr.Dist2(1, x[0], y, z) <= r*r {
			want = []int{0, 1}
		}
		if got := joinSequence(tr, r, false, tr.PairsWithin); !slices.Equal(got, want) {
			t.Fatalf("x = %v, r = %v: PairsWithin reports %v, brute force %v", x, r, got, want)
		}
		for i := range x {
			if got := tr.Within(x[i], y, z, r); len(got) != 1+len(want)/2 {
				t.Fatalf("x = %v, r = %v: VisitWithin from point %d finds %v, brute force %d points", x, r, i, got, 1+len(want)/2)
			}
		}
		lo := &tr.nodes[tr.nodes[0].left]
		if len(want) > 0 && tr.boxDist2(lo, x[1], y, z) > r*r {
			sensitive++
		}
	}
	if sensitive == 0 {
		t.Error("no case where the box distance rounds above the pair's Dist2; the test checks nothing")
	}
	t.Logf("%d of 4000 cases need the prunes' padding", sensitive)
}
