package halo

import (
	"reflect"
	"testing"

	"repro/internal/nbody"
)

// fuzzBox is the periodic box of FuzzFOFMatchesNaive and fuzzCell its grid
// step: coordinates and linking lengths are multiples of 1/8, exact in
// binary, so coincident particles and separations of exactly the linking
// length — across the box faces too — are common, not measure-zero.
const (
	fuzzBox  = 4.0
	fuzzCell = 0.25
)

// fuzzCase decodes bytes into a FOF problem: two header bytes of options
// (linking length 0.125–1.5 and the subtree shortcut; min size 1–4 and the
// leaf size), then three bytes per particle, at most 256 particles.
func fuzzCase(data []byte) (*nbody.Particles, Options) {
	p := nbody.NewParticles(0)
	if len(data) < 2 {
		return p, Options{LinkingLength: fuzzCell, MinSize: 1, Periodic: true}
	}
	o := Options{
		LinkingLength:       float64(1+data[0]%12) * fuzzCell / 2,
		DisableSubtreeMerge: data[0]&0x80 != 0,
		MinSize:             1 + int(data[1]%4),
		LeafSize:            int(data[1] >> 4), // 0 selects the default
		Periodic:            true,
	}
	const cells = int(fuzzBox / fuzzCell)
	for b := data[2:]; len(b) >= 3 && p.N() < 256; b = b[3:] {
		p.Append(
			float64(int(b[0])%cells)*fuzzCell,
			float64(int(b[1])%cells)*fuzzCell,
			float64(int(b[2])%cells)*fuzzCell,
			0, 0, 0, int64(1000-p.N()))
	}
	return p, o
}

// FuzzFOFMatchesNaive holds the tree finder to the all-pairs finder on
// adversarial small periodic sets: no panic, equal catalogs, and every
// particle in at most one halo. The seed corpus is testdata/fuzz.
func FuzzFOFMatchesNaive(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, o := fuzzCase(data)
		fast, err := FOF(p, fuzzBox, o)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NaiveFOF(p, fuzzBox, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("%+v over %d particles: tree catalog %+v, all-pairs %+v", o, p.N(), fast.Halos, slow.Halos)
		}
		seen := make([]bool, p.N())
		for _, h := range fast.Halos {
			for _, i := range h.Indices {
				if seen[i] {
					t.Fatalf("particle %d is in two halos", i)
				}
				seen[i] = true
			}
		}
	})
}
