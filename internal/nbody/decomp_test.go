package nbody

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/mpi"
)

func TestSlabBounds(t *testing.T) {
	lo, hi := SlabBounds(0, 4, 16)
	if lo != 0 || hi != 4 {
		t.Errorf("rank 0: [%v, %v)", lo, hi)
	}
	lo, hi = SlabBounds(3, 4, 16)
	if lo != 12 || hi != 16 {
		t.Errorf("rank 3: [%v, %v)", lo, hi)
	}
	// Non-dividing sizes: the last rank absorbs rounding.
	lo, hi = SlabBounds(2, 3, 10)
	if math.Abs(lo-20.0/3) > 1e-12 || hi != 10 {
		t.Errorf("rank 2/3: [%v, %v)", lo, hi)
	}
}

func TestSlabOwner(t *testing.T) {
	if SlabOwner(0, 4, 16) != 0 || SlabOwner(15.9, 4, 16) != 3 {
		t.Error("edge owners wrong")
	}
	if SlabOwner(4.0, 4, 16) != 1 {
		t.Error("boundary should belong to the upper slab")
	}
	// Wrapped coordinates.
	if SlabOwner(-0.5, 4, 16) != 3 || SlabOwner(16.5, 4, 16) != 0 {
		t.Error("periodic wrapping wrong")
	}
	// Rounding at the very top edge cannot produce an invalid rank.
	if r := SlabOwner(15.999999999999998, 4, 16); r != 3 {
		t.Errorf("top edge owner = %d", r)
	}
}

// Distribute must deliver every particle to exactly its owner rank.
func TestDistribute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := 16.0
	all := NewParticles(0)
	for i := 0; i < 300; i++ {
		all.Append(rng.Float64()*box, rng.Float64()*box, rng.Float64()*box, 0, 0, 0, int64(i))
	}
	var mu sync.Mutex
	gotTags := map[int64]int{} // tag -> rank
	total := 0
	err := mpi.RunRanks(4, func(c *mpi.Comm) error {
		// Start with a round-robin (wrong) distribution.
		local := NewParticles(0)
		for i := c.Rank(); i < all.N(); i += c.Size() {
			local.AppendFrom(all, i)
		}
		mine, err := Distribute(c, local, box)
		if err != nil {
			return err
		}
		for i := 0; i < mine.N(); i++ {
			if SlabOwner(mine.X[i], c.Size(), box) != c.Rank() {
				return fmt.Errorf("rank %d holds foreign particle x=%v", c.Rank(), mine.X[i])
			}
		}
		mu.Lock()
		for i := 0; i < mine.N(); i++ {
			if prev, dup := gotTags[mine.Tag[i]]; dup {
				mu.Unlock()
				return fmt.Errorf("tag %d on ranks %d and %d", mine.Tag[i], prev, c.Rank())
			}
			gotTags[mine.Tag[i]] = c.Rank()
		}
		total += mine.N()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != all.N() {
		t.Errorf("distributed %d of %d", total, all.N())
	}
}

func TestDistributeRejectsInvalidParticles(t *testing.T) {
	err := mpi.RunRanks(2, func(c *mpi.Comm) error {
		bad := NewParticles(2)
		bad.VX = bad.VX[:1]
		if _, err := Distribute(c, bad, 10); err == nil {
			return fmt.Errorf("expected validation error")
		}
		// Both ranks must still converge: run a valid exchange after.
		_, err := Distribute(c, NewParticles(0), 10)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ExchangeOverload must hand each rank exactly the neighbour particles
// within the overload distance of its slab, including across the periodic
// wrap.
func TestExchangeOverload(t *testing.T) {
	box := 16.0
	ow := 1.0
	// One particle per interesting location.
	all := NewParticles(0)
	positions := []float64{0.5, 3.5, 4.5, 7.5, 8.5, 11.5, 12.5, 15.5}
	for i, x := range positions {
		all.Append(x, 8, 8, 0, 0, 0, int64(i))
	}
	var mu sync.Mutex
	ghostsByRank := map[int][]int64{}
	err := mpi.RunRanks(4, func(c *mpi.Comm) error {
		var idx []int
		for i := 0; i < all.N(); i++ {
			if SlabOwner(all.X[i], c.Size(), box) == c.Rank() {
				idx = append(idx, i)
			}
		}
		ghosts, err := ExchangeOverload(c, all.Select(idx), box, ow)
		if err != nil {
			return err
		}
		mu.Lock()
		for i := 0; i < ghosts.N(); i++ {
			ghostsByRank[c.Rank()] = append(ghostsByRank[c.Rank()], ghosts.Tag[i])
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 owns [0,4): ghosts are x=15.5 (tag 7, across the wrap) and
	// x=4.5 (tag 2).
	want := map[int][]int64{
		0: {2, 7},
		1: {1, 4}, // x=3.5 and x=8.5
		2: {3, 6}, // x=7.5 and x=12.5
		3: {0, 5}, // x=0.5 (wrap) and x=11.5
	}
	for rank, tags := range want {
		got := append([]int64(nil), ghostsByRank[rank]...)
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if len(got) != len(tags) {
			t.Fatalf("rank %d ghosts = %v, want %v", rank, got, tags)
		}
		for i := range tags {
			if got[i] != tags[i] {
				t.Fatalf("rank %d ghosts = %v, want %v", rank, got, tags)
			}
		}
	}
}

func TestExchangeOverloadValidation(t *testing.T) {
	err := mpi.RunRanks(2, func(c *mpi.Comm) error {
		if _, err := ExchangeOverload(c, NewParticles(0), 16, 0); err == nil {
			return fmt.Errorf("expected overload error")
		}
		if _, err := ExchangeOverload(c, NewParticles(0), 16, 9); err == nil {
			return fmt.Errorf("expected slab-width error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeOverloadSingleRank(t *testing.T) {
	err := mpi.RunRanks(1, func(c *mpi.Comm) error {
		p := NewParticles(0)
		p.Append(1, 1, 1, 0, 0, 0, 0)
		ghosts, err := ExchangeOverload(c, p, 16, 1)
		if err != nil {
			return err
		}
		if ghosts.N() != 0 {
			return fmt.Errorf("single rank should get no ghosts")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Two ranks: left and right neighbours coincide; both edges' particles
// must arrive exactly once each.
func TestExchangeOverloadTwoRanks(t *testing.T) {
	box := 8.0
	all := NewParticles(0)
	all.Append(0.5, 1, 1, 0, 0, 0, 0) // rank 0 low edge
	all.Append(3.5, 1, 1, 0, 0, 0, 1) // rank 0 high edge
	all.Append(2.0, 1, 1, 0, 0, 0, 2) // rank 0 interior
	all.Append(4.5, 1, 1, 0, 0, 0, 3) // rank 1 low edge
	all.Append(7.5, 1, 1, 0, 0, 0, 4) // rank 1 high edge
	all.Append(6.0, 1, 1, 0, 0, 0, 5) // rank 1 interior
	var mu sync.Mutex
	got := map[int][]int64{}
	err := mpi.RunRanks(2, func(c *mpi.Comm) error {
		var idx []int
		for i := 0; i < all.N(); i++ {
			if SlabOwner(all.X[i], 2, box) == c.Rank() {
				idx = append(idx, i)
			}
		}
		ghosts, err := ExchangeOverload(c, all.Select(idx), box, 1)
		if err != nil {
			return err
		}
		mu.Lock()
		got[c.Rank()] = append([]int64(nil), ghosts.Tag...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, tags := range got {
		sort.Slice(tags, func(a, b int) bool { return tags[a] < tags[b] })
		var want []int64
		if rank == 0 {
			want = []int64{3, 4}
		} else {
			want = []int64{0, 1}
		}
		if len(tags) != 2 || tags[0] != want[0] || tags[1] != want[1] {
			t.Errorf("rank %d ghosts = %v, want %v", rank, tags, want)
		}
	}
}

// With overload > slabW/2 the two edge zones of a slab overlap; on two
// ranks both edges face the same neighbour, which must receive a particle
// in the overlap once, not once per edge.
func TestExchangeOverloadTwoRanksNoDuplicateGhosts(t *testing.T) {
	box := 8.0
	all := NewParticles(0)
	for i := 0; i < 16; i++ { // x = 0.25, 0.75, ..., 7.75: eight per slab
		all.Append(0.25+0.5*float64(i), 1, 1, 0, 0, 0, int64(i))
	}
	var mu sync.Mutex
	got := map[int][]int64{}
	err := mpi.RunRanks(2, func(c *mpi.Comm) error {
		var idx []int
		for i := 0; i < all.N(); i++ {
			if SlabOwner(all.X[i], 2, box) == c.Rank() {
				idx = append(idx, i)
			}
		}
		ghosts, err := ExchangeOverload(c, all.Select(idx), box, 3)
		if err != nil {
			return err
		}
		mu.Lock()
		got[c.Rank()] = append([]int64(nil), ghosts.Tag...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Overload 3 of a 4-wide slab: the zones [lo, lo+3) and [hi-3, hi)
	// cover the slab, so the ghosts are the other rank's particles, in
	// their order — and the four in [lo+1, lo+3) are not there twice.
	want := map[int]string{0: "[8 9 10 11 12 13 14 15]", 1: "[0 1 2 3 4 5 6 7]"}
	for rank := range want {
		if fmt.Sprint(got[rank]) != want[rank] {
			t.Errorf("rank %d ghost tags = %v, want %v", rank, got[rank], want[rank])
		}
	}
}
