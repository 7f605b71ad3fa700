package cosmotools

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/center"
	"repro/internal/gio"
	"repro/internal/halo"
	"repro/internal/mpi"
	"repro/internal/nbody"
)

// clusteredBox builds a box with halos of several sizes, including one
// above the split threshold used in the tests (300).
func clusteredBox(seed int64) (*nbody.Particles, float64) {
	rng := rand.New(rand.NewSource(seed))
	box := 16.0
	p := nbody.NewParticles(0)
	tag := int64(0)
	add := func(n int, cx, cy, cz float64) {
		for i := 0; i < n; i++ {
			p.Append(
				wrap(cx+(rng.Float64()-0.5)*0.3, box),
				wrap(cy+(rng.Float64()-0.5)*0.3, box),
				wrap(cz+(rng.Float64()-0.5)*0.3, box),
				0, 0, 0, tag)
			tag++
		}
	}
	add(500, 3, 3, 3)   // above threshold
	add(120, 9, 9, 9)   // below
	add(80, 13, 4, 12)  // below
	add(60, 15.9, 8, 8) // below, straddles the wrap
	for i := 0; i < 150; i++ {
		p.Append(rng.Float64()*box, rng.Float64()*box, rng.Float64()*box, 0, 0, 0, tag)
		tag++
	}
	return p, box
}

func distribute(all *nbody.Particles, rank, size int, box float64) *nbody.Particles {
	var idx []int
	for i := 0; i < all.N(); i++ {
		if nbody.SlabOwner(all.X[i], size, box) == rank {
			idx = append(idx, i)
		}
	}
	return all.Select(idx)
}

// The distributed pipeline must reproduce the serial pipeline's complete
// center catalog exactly (same tags, counts and MBP tags).
func TestParallelAnalysisMatchesSerial(t *testing.T) {
	all, box := clusteredBox(1)
	fofOpts := halo.Options{LinkingLength: 0.35, MinSize: 20}
	threshold := 300
	co := center.Options{Mass: 1, Softening: 1e-3}

	// Serial reference.
	serialOpts := fofOpts
	serialOpts.Periodic = true
	refCat, err := halo.FOF(all, box, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	refCenters, refL2, err := SplitCenterFinding(all, box, refCat, threshold, co)
	if err != nil {
		t.Fatal(err)
	}
	refOffline, err := CentersForLevel2(refL2, box, co)
	if err != nil {
		t.Fatal(err)
	}
	refAll, err := MergeCenters(refCenters, refOffline)
	if err != nil {
		t.Fatal(err)
	}
	if len(refL2.Spans) == 0 {
		t.Fatal("test box has no halo above the threshold")
	}

	for _, ranks := range []int{1, 2, 4} {
		var mu sync.Mutex
		var gathered []CenterRecord
		var l2OnZero *Level2
		err := mpi.RunRanks(ranks, func(c *mpi.Comm) error {
			local := distribute(all, c.Rank(), c.Size(), box)
			prod, err := ParallelAnalysis(c, local, box, 2.0, fofOpts, threshold, co)
			if err != nil {
				//lint:allow mpicollective error path fires only on test failure, where the resulting stall surfaces as a test timeout
				return err
			}
			centers := GatherCenters(c, prod.Centers)
			l2 := GatherLevel2(c, prod.Level2)
			if c.Rank() == 0 {
				mu.Lock()
				gathered = centers
				l2OnZero = l2
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		offline, err := CentersForLevel2(l2OnZero, box, co)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		merged, err := MergeCenters(gathered, offline)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if len(merged) != len(refAll) {
			t.Fatalf("ranks=%d: %d centers, want %d", ranks, len(merged), len(refAll))
		}
		for i := range merged {
			if merged[i].HaloTag != refAll[i].HaloTag ||
				merged[i].Count != refAll[i].Count ||
				merged[i].MBPTag != refAll[i].MBPTag {
				t.Fatalf("ranks=%d: center %d = %+v, want %+v", ranks, i, merged[i], refAll[i])
			}
		}
	}
}

func TestMergeCentersOfflineWins(t *testing.T) {
	inSitu := []CenterRecord{
		{HaloTag: 1, Count: 100, MBPTag: 11},
		{HaloTag: 5, Count: 50, MBPTag: 55},
	}
	offline := []CenterRecord{
		{HaloTag: 5, Count: 50, MBPTag: 99}, // supersedes
		{HaloTag: 9, Count: 500, MBPTag: 91},
	}
	merged, err := MergeCenters(inSitu, offline)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 3 {
		t.Fatalf("merged = %+v", merged)
	}
	if merged[0].HaloTag != 1 || merged[1].HaloTag != 5 || merged[2].HaloTag != 9 {
		t.Errorf("order = %+v", merged)
	}
	if merged[1].MBPTag != 99 {
		t.Errorf("off-line record should win: %+v", merged[1])
	}
}

func TestMergeCentersRejectsDuplicateInSitu(t *testing.T) {
	dup := []CenterRecord{{HaloTag: 1}, {HaloTag: 1}}
	if _, err := MergeCenters(dup, nil); err == nil {
		t.Error("expected duplicate error")
	}
}

func TestCentersForLevel2EmptySpan(t *testing.T) {
	l2 := &Level2{Particles: nbody.NewParticles(0), Spans: []Level2Span{{Tag: 3, Start: 0, End: 0}}}
	if _, err := CentersForLevel2(l2, 10, center.Options{}); err == nil {
		t.Error("expected empty-span error")
	}
}

// The Level 2 file layout round-trips: Blocks → gio file → Level2FromBlocks
// preserves spans (count, order, tags, extents) and every particle tag, and
// the off-line centers over the file equal those over the in-memory
// product. gio stores float32 coordinates, so a near-tie between two
// particles' potentials may flip the MBP; tags and counts must not move.
func TestLevel2BlocksRoundTrip(t *testing.T) {
	co := center.Options{Mass: 1, Softening: 1e-3}
	halos, sameMBP := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		all, box := clusteredBox(seed)
		cat, err := halo.FOF(all, box, halo.Options{LinkingLength: 0.35, MinSize: 20, Periodic: true})
		if err != nil {
			t.Fatal(err)
		}
		_, l2, err := SplitCenterFinding(all, box, cat, 50, co)
		if err != nil {
			t.Fatal(err)
		}
		if len(l2.Spans) < 4 {
			t.Fatalf("seed %d: only %d halos above the split", seed, len(l2.Spans))
		}
		path := filepath.Join(t.TempDir(), "l2.gio")
		if err := gio.WriteFile(path, l2.Blocks()); err != nil {
			t.Fatal(err)
		}
		blocks, err := gio.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Level2FromBlocks(blocks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Spans, l2.Spans) {
			t.Fatalf("seed %d: spans %+v, want %+v", seed, back.Spans, l2.Spans)
		}
		if !reflect.DeepEqual(back.Particles.Tag, l2.Particles.Tag) {
			t.Fatalf("seed %d: particle tags moved in the round trip", seed)
		}
		want, err := CentersForLevel2(l2, box, co)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CentersForLevel2(back, box, co)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d centers from the file, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i].HaloTag != want[i].HaloTag || got[i].Count != want[i].Count {
				t.Errorf("seed %d: center %d = %+v, want %+v", seed, i, got[i], want[i])
			}
			halos++
			if got[i].MBPTag == want[i].MBPTag {
				sameMBP++
			}
		}
	}
	if 100*sameMBP < 95*halos {
		t.Errorf("MBP survived the float32 round trip on %d of %d halos, want >= 95%%", sameMBP, halos)
	}

	empty := []gio.Block{{Rank: 0, Particles: nbody.NewParticles(0)}}
	if _, err := Level2FromBlocks(empty); err == nil {
		t.Error("a block without particles was accepted as a halo")
	}
}

func TestGatherLevel2RebasesSpans(t *testing.T) {
	err := mpi.RunRanks(3, func(c *mpi.Comm) error {
		// Each rank contributes one 2-particle halo.
		l2 := &Level2{Particles: nbody.NewParticles(0)}
		base := int64(c.Rank() * 10)
		l2.Particles.Append(float64(c.Rank()), 0, 0, 0, 0, 0, base)
		l2.Particles.Append(float64(c.Rank()), 1, 0, 0, 0, 0, base+1)
		l2.Spans = []Level2Span{{Tag: base, Start: 0, End: 2}}
		got := GatherLevel2(c, l2)
		if c.Rank() != 0 {
			if got.Particles.N() != 0 {
				return fmt.Errorf("rank %d should get empty product", c.Rank())
			}
			return nil
		}
		if got.Particles.N() != 6 || len(got.Spans) != 3 {
			return fmt.Errorf("gathered %d particles / %d spans", got.Particles.N(), len(got.Spans))
		}
		for _, span := range got.Spans {
			if span.End-span.Start != 2 {
				return fmt.Errorf("span %+v", span)
			}
			// The span's first particle must carry the span tag.
			if got.Particles.Tag[span.Start] != span.Tag {
				return fmt.Errorf("span %d points at tag %d", span.Tag, got.Particles.Tag[span.Start])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func wrap(x, l float64) float64 {
	for x < 0 {
		x += l
	}
	for x >= l {
		x -= l
	}
	return x
}
