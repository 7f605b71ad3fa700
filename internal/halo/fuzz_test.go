package halo

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nbody"
	"repro/internal/periodic"
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

// parallelFuzzBox is the periodic box of FuzzParallelFOFMatchesSerial,
// TestParallelFOFMatchesSerial's.
const parallelFuzzBox = 16.0

// parallelFuzzCase decodes bytes into a distributed FOF problem: four
// header bytes — the rank count (1–4), the linking length (1/64–1 in
// steps of 1/64), the overload (from the linking length up to the slab
// width) and the minimum halo size (1–16) — then six bytes per particle,
// at most 300: x, y and z as big-endian 16-bit fractions of the box. An x
// with its top bit set is instead an offset of up to two linking lengths,
// in eighths of one, from a slab face (the face at 0 is the box's), so
// particles near the faces, ghosts and wrap-arounds are the common case.
func parallelFuzzCase(data []byte) (p *nbody.Particles, ranks int, overload float64, o Options) {
	const box = parallelFuzzBox
	var head [4]byte
	copy(head[:], data)
	ranks = 1 + int(head[0]%4)
	slab := box / float64(ranks)
	o = Options{LinkingLength: float64(1+head[1]%64) / 64, MinSize: 1 + int(head[3]%16)}
	overload = o.LinkingLength + (slab-o.LinkingLength)*float64(head[2])/255
	p = nbody.NewParticles(0)
	for b := data[min(4, len(data)):]; len(b) >= 6 && p.N() < 300; b = b[6:] {
		xb := binary.BigEndian.Uint16(b)
		x := float64(xb) / 32768 * box
		if xb&0x8000 != 0 {
			face := float64(int(xb>>12&7)%ranks) * slab
			x = face + float64(int(xb&0xfff)%33-16)*o.LinkingLength/8
		}
		p.Append(periodic.Wrap(x, box),
			float64(binary.BigEndian.Uint16(b[2:]))/65536*box,
			float64(binary.BigEndian.Uint16(b[4:]))/65536*box,
			0, 0, 0, int64(1000-p.N()))
	}
	return p, ranks, overload, o
}

// encodeParallelFuzzCase is parallelFuzzCase's inverse for seeds, up to
// the 16-bit quantisation of the coordinates: x plain, never face-relative.
func encodeParallelFuzzCase(p *nbody.Particles, ranks, llSixtyFourths, overloadCode, minSize int) []byte {
	data := []byte{byte(ranks - 1), byte(llSixtyFourths - 1), byte(overloadCode), byte(minSize - 1)}
	for i := 0; i < p.N(); i++ {
		data = binary.BigEndian.AppendUint16(data, uint16(p.X[i]/parallelFuzzBox*32768))
		data = binary.BigEndian.AppendUint16(data, uint16(p.Y[i]/parallelFuzzBox*65536))
		data = binary.BigEndian.AppendUint16(data, uint16(p.Z[i]/parallelFuzzBox*65536))
	}
	return data
}

// xExtent is the length of the shortest arc of the periodic x axis that
// holds every member of h.
func xExtent(p *nbody.Particles, h Halo, box float64) float64 {
	xs := make([]float64, len(h.Indices))
	for k, i := range h.Indices {
		xs[k] = p.X[i]
	}
	sort.Float64s(xs)
	gap := xs[0] + box - xs[len(xs)-1]
	for k := 1; k < len(xs); k++ {
		gap = max(gap, xs[k]-xs[k-1])
	}
	return box - gap
}

// FuzzParallelFOFMatchesSerial holds the distributed finder to the serial
// one on adversarial inputs: the halos ParallelFOF's ranks own, merged, are
// serial periodic FOF's, each exactly once, as (tag, count) pairs. Inputs
// where some halo's x extent exceeds the overload are skipped: ownership is
// only promised when the overload covers every halo (ParallelFOF).
func FuzzParallelFOFMatchesSerial(f *testing.F) {
	testBox, _ := makeTestBox(5)
	for _, ranks := range []int{1, 2, 3, 4} {
		// TestParallelFOFMatchesSerial's box: linking length 19/64 ≈ 0.3, overload ≈ 2.
		f.Add(encodeParallelFuzzCase(testBox, ranks, 19, 110, 10))
	}
	// One halo straddling the face slabs 0|1 (2 ranks) and 1|2 (4 ranks)
	// share, one straddling the box face slabs 0 and N-1 share.
	straddle := nbody.NewParticles(0)
	for k := 0; k < 8; k++ {
		d := float64(k-4) * 0.25
		straddle.Append(8+d, 5, 5, 0, 0, 0, int64(k))
		straddle.Append(periodic.Wrap(d, parallelFuzzBox), 11, 11+d/4, 0, 0, 0, int64(100+k))
	}
	for _, ranks := range []int{2, 4} {
		f.Add(encodeParallelFuzzCase(straddle, ranks, 20, 128, 4))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const box = parallelFuzzBox
		p, ranks, overload, o := parallelFuzzCase(data)
		serialOpts := o
		serialOpts.Periodic = true
		want, err := FOF(p, box, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		var expect []string
		for _, h := range want.Halos {
			if e := xExtent(p, h, box); e > overload {
				t.Skipf("halo %d spans %g in x, over the overload %g", h.Tag, e, overload)
			}
			expect = append(expect, fmt.Sprintf("%d:%d", h.Tag, h.Count()))
		}
		sort.Strings(expect)
		var owned sortableResults
		err = mpi.RunRanks(ranks, func(c *mpi.Comm) error {
			res, err := ParallelFOF(c, distributeByOwner(p, c.Rank(), c.Size(), box), box, overload, o)
			if err != nil {
				return err
			}
			for _, h := range res.Catalog.Halos {
				owned.add(fmt.Sprintf("%d:%d", h.Tag, h.Count()))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%d ranks, overload %g: %v", ranks, overload, err)
		}
		if got := owned.sorted(); !reflect.DeepEqual(got, expect) {
			t.Fatalf("%d ranks, %+v, overload %g over %d particles: owned halos %v, serial %v",
				ranks, o, overload, p.N(), got, expect)
		}
	})
}
