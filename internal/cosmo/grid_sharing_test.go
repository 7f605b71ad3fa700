package cosmo_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cosmo"
)

var freshBox atomic.Int64 // a box no -count repeat has gridded yet

// A population's seed and redshift are not in the mass-grid key: the
// slices of one scenario at any seed share one grid.
func TestPopulationsShareOneGrid(t *testing.T) {
	p := cosmo.Default()
	o := core.SynthesisOptions{BoxMpch: 77 + float64(freshBox.Add(1)), NP: 256, MinSize: 40, SampleAbove: 3000, Seed: 1}
	otherSeed, otherSlice := o, o
	otherSeed.Seed, otherSlice.Z = 2, 1.68
	_, before := cosmo.CacheEntries()
	for _, o := range []core.SynthesisOptions{o, otherSeed, otherSlice} {
		if _, err := core.SynthesizePopulation(p, o); err != nil {
			t.Fatal(err)
		}
	}
	if _, after := cosmo.CacheEntries(); after != before+1 {
		t.Errorf("three populations differing in seed and redshift added %d grids, want 1", after-before)
	}
}
