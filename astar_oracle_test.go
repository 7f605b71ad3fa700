package repro

import (
	"math"
	"testing"

	"repro/internal/center"
)

// center.AStar groups a halo's particles with kdtree.Build and bounds
// potentials by walking that tree with TraverseNodes; BruteForce evaluates
// every potential. On every FOF halo of the 32³ fixture, unwrapped, the two
// must find the same most bound particle with the same potential, bit for
// bit. Only a tie between two members may leave the indices apart.
func TestAStarMatchesBruteForceOnEveryHalo(t *testing.T) {
	sim, cat, mass := snapshot(t)
	if len(cat.Halos) == 0 {
		t.Fatal("the fixture has no halos")
	}
	o := center.Options{Mass: mass, Softening: 1e-3}
	ties := 0
	for k, h := range cat.Halos {
		x, y, z := center.Unwrap(sim.P.X, sim.P.Y, sim.P.Z, h.Indices, snapBox)
		want, err := center.BruteForce(x, y, z, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := center.AStar(x, y, z, o)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Potential) != math.Float64bits(want.Potential) {
			t.Errorf("halo %d (%d members): A* potential %v at %d, brute force %v at %d",
				k, len(x), got.Potential, got.Index, want.Potential, want.Index)
		} else if got.Index != want.Index {
			ties++
		}
	}
	t.Logf("%d halos, %d with tied most bound members", len(cat.Halos), ties)
}
