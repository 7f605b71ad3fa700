package nbody

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/testsupport"
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

// WithOverload must hand each rank its own particles followed by exactly
// the neighbour particles within the overload distance of its slab,
// including across the periodic wrap.
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
		local := all.Select(idx)
		ext, err := WithOverload(c, local, box, ow)
		if err != nil {
			return err
		}
		ghosts, err := ghostTags(local, ext)
		mu.Lock()
		ghostsByRank[c.Rank()] = ghosts
		mu.Unlock()
		return err
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
		if _, err := WithOverload(c, NewParticles(0), 16, 0); err == nil {
			return fmt.Errorf("expected overload error")
		}
		if _, err := WithOverload(c, NewParticles(0), 16, 9); err == nil {
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
		ext, err := WithOverload(c, p, 16, 1)
		if err != nil {
			return err
		}
		ghosts, err := ghostTags(p, ext)
		if err == nil && len(ghosts) != 0 {
			return fmt.Errorf("single rank should get no ghosts, got %v", ghosts)
		}
		if err == nil && ext != p {
			return fmt.Errorf("single rank's extended set is a copy, not local itself")
		}
		return err
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
		local := all.Select(idx)
		ext, err := WithOverload(c, local, box, 1)
		if err != nil {
			return err
		}
		ghosts, err := ghostTags(local, ext)
		mu.Lock()
		got[c.Rank()] = ghosts
		mu.Unlock()
		return err
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
		local := all.Select(idx)
		ext, err := WithOverload(c, local, box, 3)
		if err != nil {
			return err
		}
		ghosts, err := ghostTags(local, ext)
		mu.Lock()
		got[c.Rank()] = ghosts
		mu.Unlock()
		return err
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

// ghostTags checks that ext is local, column for column, followed by its
// ghosts, and returns the ghosts' tags.
func ghostTags(local, ext *Particles) ([]int64, error) {
	n := local.N()
	if ext.N() < n || !sameColumns(local, head(ext, n)) {
		return nil, fmt.Errorf("extended set of %d does not begin with the %d local particles", ext.N(), n)
	}
	return slices.Clone(ext.Tag[n:]), nil
}

// head is p's first n particles, sharing p's columns.
func head(p *Particles, n int) *Particles {
	return &Particles{X: p.X[:n], Y: p.Y[:n], Z: p.Z[:n], VX: p.VX[:n], VY: p.VY[:n], VZ: p.VZ[:n], Tag: p.Tag[:n]}
}

func sameColumns(a, b *Particles) bool {
	return slices.Equal(a.X, b.X) && slices.Equal(a.Y, b.Y) && slices.Equal(a.Z, b.Z) &&
		slices.Equal(a.VX, b.VX) && slices.Equal(a.VY, b.VY) && slices.Equal(a.VZ, b.VZ) &&
		slices.Equal(a.Tag, b.Tag)
}

// shares deals n random particles with x in [0, xmax) out to size ranks,
// particle i to rank from(i).
func shares(n, size int, xmax, box float64, from func(i int) int) []*Particles {
	rng := rand.New(rand.NewSource(int64(n + size)))
	out := make([]*Particles, size)
	for r := range out {
		out[r] = NewParticles(0)
	}
	for i := 0; i < n; i++ {
		out[from(i)].Append(rng.Float64()*xmax, rng.Float64()*box, rng.Float64()*box,
			rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), int64(i))
	}
	return out
}

// Distribute and WithOverload exchange views where the reference
// exchanges copies; they must return the same particles in the same
// order, column for column.
func TestDistributeAndOverloadMatchReference(t *testing.T) {
	const box = 16.0
	for size := 1; size <= 4; size++ {
		cases := map[string][]*Particles{
			"round-robin": shares(500, size, box, box, func(i int) int { return i % size }),
		}
		if size > 1 {
			// No particle lies in the last slab, so its bucket is empty on
			// every rank; and rank 0 starts with none, so it sends nothing.
			cases["empty-slab-silent-rank"] = shares(500, size, box*float64(size-1)/float64(size), box,
				func(i int) int { return 1 + i%(size-1) })
		}
		for name, start := range cases {
			err := mpi.RunRanks(size, func(c *mpi.Comm) error {
				local, err := Distribute(c, start[c.Rank()], box)
				if err != nil {
					return err
				}
				if want := referenceDistribute(c, start[c.Rank()], box); !sameColumns(local, want) {
					return fmt.Errorf("rank %d: Distribute's %d particles differ from the reference's %d", c.Rank(), local.N(), want.N())
				}
				if name != "round-robin" && c.Rank() == size-1 && local.N() != 0 {
					return fmt.Errorf("rank %d: empty slab received %d particles", c.Rank(), local.N())
				}
				for _, ow := range []float64{1, box / float64(size)} {
					ext, err := WithOverload(c, local, box, ow)
					if err != nil {
						return err
					}
					if want := Concat(local, referenceGhosts(c, local, box, ow)); !sameColumns(ext, want) {
						return fmt.Errorf("rank %d, overload %g: %d extended particles differ from the reference's %d", c.Rank(), ow, ext.N(), want.N())
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("%d ranks, %s: %v", size, name, err)
			}
		}
	}
}

// Distribute copies each particle once, into the container it ends in;
// its only other per-particle cost is the owner pass's two index slices.
// The reference's Select copies, Concat and append growth cost more.
func TestDistributeAllocatesOneCopy(t *testing.T) {
	const n, size, box = 1 << 15, 4, 16.0
	start := shares(n, size, box, box, func(i int) int { return i % size })
	run := func(fn func(c *mpi.Comm) error) func() {
		return func() {
			if err := mpi.RunRanks(size, fn); err != nil {
				t.Fatal(err)
			}
		}
	}
	world := testsupport.Allocated(run(func(c *mpi.Comm) error {
		c.AllToAll(make([]any, size))
		c.Barrier()
		return nil
	}))
	got := testsupport.Allocated(run(func(c *mpi.Comm) error {
		_, err := Distribute(c, start[c.Rank()], box)
		return err
	}))
	// Per rank: the nine particle-sized slices each round up to a page,
	// and a few small headers.
	const perRank = 9*8<<10 + 4<<10
	if bound := world + (56+16)*n + perRank*size; got > bound {
		t.Errorf("Distribute of %d particles over %d ranks allocated %d B, more than %d (%.1f B per particle over the world's)",
			n, size, got, bound, float64(got-world)/n)
	}
}
