package halo

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/nbody"
)

// oracleSet is one named particle set of the differential tests.
type oracleSet struct {
	name string
	p    *nbody.Particles
}

// oracleSets returns random and degenerate particle sets inside [0, box):
// the shapes a tree traversal can get wrong and an all-pairs scan cannot.
func oracleSets(rng *rand.Rand, box float64) []oracleSet {
	var sets []oracleSet
	set := func(name string) {
		sets = append(sets, oracleSet{name, nbody.NewParticles(0)})
	}
	add := func(x, y, z float64) {
		p := sets[len(sets)-1].p
		// Tags descend, so a halo's tag is never its first member's.
		p.Append(x, y, z, 0, 0, 0, int64(10000-p.N()))
	}
	wrap := func(v float64) float64 { return math.Mod(v+box, box) }
	set("empty")
	set("uniform")
	for i := 0; i < 150+rng.Intn(100); i++ {
		add(rng.Float64()*box, rng.Float64()*box, rng.Float64()*box)
	}
	set("fewer than a leaf")
	for i := 0; i < 1+rng.Intn(4); i++ {
		add(rng.Float64()*box, rng.Float64()*box, rng.Float64()*box)
	}
	set("all coincident")
	for i := 0; i < 40; i++ {
		add(1, 2, 3)
	}
	// Unit lattice, every fourth site occupied twice: equal coordinates
	// along every axis and separations of exactly 1, √2 and 0.
	set("lattice with duplicates")
	for i := 0; i < 5*5*5; i++ {
		x, y, z := float64(i%5), float64(i/5%5), float64(i/25)
		add(x, y, z)
		if i%4 == 0 {
			add(x, y, z)
		}
	}
	set("blob straddling x = 0/box")
	for i := 0; i < 120; i++ {
		add(wrap(rng.NormFloat64()*0.4), box/2+rng.NormFloat64()*0.4, box/2+rng.NormFloat64()*0.4)
	}
	set("clumps")
	for c := 0; c < 4; c++ {
		cx, cy, cz := rng.Float64()*box, rng.Float64()*box, rng.Float64()*box
		for i := 0; i < 60; i++ {
			add(wrap(cx+rng.NormFloat64()*0.15), wrap(cy+rng.NormFloat64()*0.15), wrap(cz+rng.NormFloat64()*0.15))
		}
	}
	return sets
}

// The tree finder's catalog must equal the all-pairs finder's in every
// field — members, order, tags, centers — on random and degenerate sets,
// periodic and open, with and without the subtree shortcut.
func TestFOFMatchesNaiveOnDegenerateSets(t *testing.T) {
	const box = 8.0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, set := range oracleSets(rng, box) {
			for _, o := range []Options{
				{LinkingLength: 0.05 + rng.Float64()*0.5, MinSize: 1},
				{LinkingLength: 1, MinSize: 2, LeafSize: 1},
				{LinkingLength: math.Sqrt2, MinSize: 3, LeafSize: 3},
				{LinkingLength: 3, MinSize: 1},
			} {
				for _, periodic := range []bool{false, true} {
					for _, noBulk := range []bool{false, true} {
						o.Periodic, o.DisableSubtreeMerge = periodic, noBulk
						id := fmt.Sprintf("seed %d %s %+v", seed, set.name, o)
						fast, err := FOF(set.p, box, o)
						if err != nil {
							t.Fatalf("%s: %v", id, err)
						}
						slow, err := NaiveFOF(set.p, box, o)
						if err != nil {
							t.Fatalf("%s: %v", id, err)
						}
						if !reflect.DeepEqual(fast, slow) {
							t.Fatalf("%s: tree catalog (%d halos, %d particles) differs from all-pairs (%d halos, %d particles)",
								id, len(fast.Halos), fast.TotalParticlesInHalos(), len(slow.Halos), slow.TotalParticlesInHalos())
						}
					}
				}
			}
		}
	}
}

// groupsByMap is the map-and-sort Groups that the single backing array
// replaced, kept as its oracle.
func groupsByMap(d *DisjointSet, minSize int) [][]int {
	byRoot := map[int][]int{}
	for i := range d.parent {
		byRoot[d.Find(i)] = append(byRoot[d.Find(i)], i)
	}
	out := [][]int{}
	for _, g := range byRoot {
		if len(g) >= minSize {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

func TestGroupsMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := trial % 60 // 0 included
		d := NewDisjointSet(n)
		for u := rng.Intn(2*n + 1); n > 0 && u > 0; u-- {
			d.Union(rng.Intn(n), rng.Intn(n))
		}
		for _, minSize := range []int{1, 2, 5, n + 1} {
			got, want := d.Groups(minSize), groupsByMap(d, minSize)
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d minSize=%d: %d groups, reference has %d", trial, n, minSize, len(got), len(want))
			}
			for g := range got {
				if !reflect.DeepEqual(got[g], want[g]) {
					t.Fatalf("trial %d n=%d minSize=%d: group %d = %v, reference %v", trial, n, minSize, g, got[g], want[g])
				}
				if cap(got[g]) != len(got[g]) {
					t.Fatalf("trial %d: group %d can grow into its neighbour's members", trial, g)
				}
			}
		}
	}
}
