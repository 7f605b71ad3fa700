package halo

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nbody"
)

// makeTestBox builds a particle set with clusters scattered through the
// box, including one straddling a slab boundary and one straddling the
// periodic wrap.
func makeTestBox(seed int64) (*nbody.Particles, float64) {
	rng := rand.New(rand.NewSource(seed))
	box := 16.0
	p := nbody.NewParticles(0)
	tag := int64(0)
	add := func(n int, cx, cy, cz float64) {
		for i := 0; i < n; i++ {
			x := cx + (rng.Float64()-0.5)*0.2
			y := cy + (rng.Float64()-0.5)*0.2
			z := cz + (rng.Float64()-0.5)*0.2
			for _, v := range []*float64{&x, &y, &z} {
				if *v < 0 {
					*v += box
				}
				if *v >= box {
					*v -= box
				}
			}
			p.Append(x, y, z, 0, 0, 0, tag)
			tag++
		}
	}
	add(60, 2, 3, 4)     // interior of rank 0 (4 ranks)
	add(40, 4.0, 8, 8)   // straddles the rank0/rank1 boundary at x=4
	add(50, 10, 2, 14)   // interior of rank 2
	add(30, 15.95, 6, 6) // straddles the periodic wrap x=0/16
	// Background noise.
	for i := 0; i < 100; i++ {
		p.Append(rng.Float64()*box, rng.Float64()*box, rng.Float64()*box, 0, 0, 0, tag)
		tag++
	}
	return p, box
}

// distributeByOwner hands each rank the particles in its slab.
func distributeByOwner(all *nbody.Particles, rank, size int, box float64) *nbody.Particles {
	var idx []int
	for i := 0; i < all.N(); i++ {
		if nbody.SlabOwner(all.X[i], size, box) == rank {
			idx = append(idx, i)
		}
	}
	return all.Select(idx)
}

// ParallelFOF must produce the same halo multiset (tag, count) as a serial
// periodic FOF over the whole box, each halo exactly once.
func TestParallelFOFMatchesSerial(t *testing.T) {
	all, box := makeTestBox(5)
	o := Options{LinkingLength: 0.3, MinSize: 10}
	serialOpts := o
	serialOpts.Periodic = true
	want, err := FOF(all, box, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Halos) < 4 {
		t.Fatalf("test box only produced %d halos", len(want.Halos))
	}

	for _, ranks := range []int{1, 2, 4} {
		var mu sortableResults
		err := mpi.RunRanks(ranks, func(c *mpi.Comm) error {
			local := distributeByOwner(all, c.Rank(), c.Size(), box)
			res, err := ParallelFOF(c, local, box, 2.0, o)
			if err != nil {
				return err
			}
			for _, h := range res.Catalog.Halos {
				mu.add(fmt.Sprintf("%d:%d", h.Tag, h.Count()))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		got := mu.sorted()
		var expect []string
		for _, h := range want.Halos {
			expect = append(expect, fmt.Sprintf("%d:%d", h.Tag, h.Count()))
		}
		sort.Strings(expect)
		if len(got) != len(expect) {
			t.Fatalf("ranks=%d: got %d halos %v, want %d %v", ranks, len(got), got, len(expect), expect)
		}
		for i := range got {
			if got[i] != expect[i] {
				t.Fatalf("ranks=%d: halo %d = %s, want %s", ranks, i, got[i], expect[i])
			}
		}
	}
}

func TestParallelFOFRejectsBadOverload(t *testing.T) {
	all, box := makeTestBox(6)
	err := mpi.RunRanks(2, func(c *mpi.Comm) error {
		local := distributeByOwner(all, c.Rank(), c.Size(), box)
		_, err := ParallelFOF(c, local, box, 0, Options{LinkingLength: 0.3, MinSize: 5})
		if err == nil {
			return fmt.Errorf("expected overload error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sortableResults collects strings safely from rank goroutines.
type sortableResults struct {
	mu    sync.Mutex
	items []string
}

func (s *sortableResults) add(v string) {
	s.mu.Lock()
	s.items = append(s.items, v)
	s.mu.Unlock()
}

func (s *sortableResults) sorted() []string {
	sort.Strings(s.items)
	return s.items
}
