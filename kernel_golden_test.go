package repro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/center"
	"repro/internal/cosmo"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/nbody"
	"repro/internal/powerspec"
)

// kernelGolden pins, per case, one sha256 over every float64 bit the
// simulation kernels produce: IC generation, then PM steps with, every 5
// steps, the particle arrays, the power spectrum, the periodic FOF catalog
// and the unwrapped largest halo. The digests were generated at the parent
// of the kernel rewrite (grid/fft/periodic); a kernel change that moves
// one bit anywhere in that chain fails here by name.
var kernelGolden = []struct {
	name       string
	np         int
	box        float64
	steps      int
	seed       int64
	wantSHA256 string
}{
	{"np32-seed1", 32, 40, 20, 1, "010b62a376d3845e3d326c3fb0d78c7c5967882efb7430d79a41f7e6177ba04b"},
	{"np32-seed2", 32, 40, 20, 2, "c7c2432c6b32028185d80ae5a27bbf778eb59f12d23d0631388b3e9f3fd2fdd0"},
	{"np32-seed7", 32, 40, 20, 7, "774e9aa722e32af21b6f4f76387429e92e76c62fe27205e4b94afbde1777ae7f"},
	{"np64-seed1", 64, 80, 10, 1, "258c852dc7a8073299c7bd1b3c7c3dab0076e5d5dbc8b77284890e0c25fc6e58"},
}

func TestKernelProductsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// arm64 (and others) may fuse a*b+c into one rounding, so the same
		// source yields other bits there; the digests are amd64's.
		t.Skipf("kernel digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	for _, c := range kernelGolden {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := kernelDigest(t, c.np, c.box, c.steps, c.seed)
			if got != c.wantSHA256 {
				t.Errorf("kernel products digest %s, want %s", got, c.wantSHA256)
			}
		})
	}
}

func kernelDigest(t *testing.T, np int, box float64, steps int, seed int64) string {
	t.Helper()
	params := cosmo.Default()
	p, a0, err := ic.Generate(params, ic.Options{NP: np, Box: box, ZInit: 50, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := nbody.NewSimulation(params, box, np, p, a0)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	particles(h, sim.P)
	fofOpts := halo.Options{LinkingLength: 0.2 * box / float64(np), MinSize: 10, Periodic: true}
	err = sim.Run(1.0, steps, func(step int) error {
		if step%5 != 0 {
			return nil
		}
		particles(h, sim.P)
		ps, err := powerspec.Measure(sim.P, box, np, 16)
		if err != nil {
			return err
		}
		floats(h, ps.K)
		floats(h, ps.P)
		ints(h, ps.Modes)
		cat, err := halo.FOF(sim.P, box, fofOpts)
		if err != nil {
			return err
		}
		ints(h, []int{len(cat.Halos)})
		for _, hl := range cat.Halos {
			ints(h, []int{int(hl.Tag), len(hl.Indices)})
			ints(h, hl.Indices)
			floats(h, hl.Center[:])
		}
		if len(cat.Halos) > 0 {
			x, y, z := center.Unwrap(sim.P.X, sim.P.Y, sim.P.Z, cat.Halos[0].Indices, box)
			floats(h, x)
			floats(h, y)
			floats(h, z)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func particles(h hash.Hash, p *nbody.Particles) {
	for _, col := range [][]float64{p.X, p.Y, p.Z, p.VX, p.VY, p.VZ} {
		floats(h, col)
	}
	for _, tag := range p.Tag {
		ints(h, []int{int(tag)})
	}
}

func floats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func ints(h hash.Hash, xs []int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}
