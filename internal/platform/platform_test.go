package platform

import (
	"math"
	"testing"
)

func TestMachinesValidate(t *testing.T) {
	for _, m := range []Machine{Titan(), Moonlight(), Rhea()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	bad := Titan()
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error")
	}
}

// The Titan charging policy: one node-hour = 30 core hours (Table 3).
func TestTitanCharge(t *testing.T) {
	titan := Titan()
	if got := titan.ChargeCoreHours(1, 3600); math.Abs(got-30) > 1e-9 {
		t.Errorf("1 node-hour = %v core hours, want 30", got)
	}
	// Table 3's in-situ row: 722 s on 32 nodes -> ~193 core hours.
	got := titan.ChargeCoreHours(32, 722)
	if got < 190 || got > 196 {
		t.Errorf("in-situ analysis charge = %v, paper says 193", got)
	}
}

func TestKernelFactorGPU(t *testing.T) {
	titan := Titan()
	cpu := titan.KernelFactor(false)
	gpu := titan.KernelFactor(true)
	if math.Abs(cpu/gpu-50) > 1e-9 {
		t.Errorf("GPU speedup = %v, paper says ~50", cpu/gpu)
	}
	rhea := Rhea()
	if rhea.KernelFactor(true) != rhea.KernelFactor(false) {
		t.Error("Rhea has no GPUs; factors must match")
	}
}

// Moonlight is slower than Titan by 1/0.55 (§4.1).
func TestMoonlightFactor(t *testing.T) {
	ratio := Titan().KernelFactor(true) / Moonlight().KernelFactor(true)
	if math.Abs(ratio-0.55) > 1e-9 {
		t.Errorf("Titan/Moonlight = %v, want 0.55", ratio)
	}
}

// Reading 20 TB on full-machine Titan takes ~10 minutes (§4.1).
func TestTitanIOAnchor(t *testing.T) {
	titan := Titan()
	sec := titan.IOSeconds(20e12, 16384)
	if sec < 400 || sec > 900 {
		t.Errorf("20 TB read = %v s, paper says ~600", sec)
	}
	// Redistribution anchor: "another 10 minutes" at the same scale. The
	// model is calibrated to Table 4's 32-node measurements first, leaving
	// the full-machine figure within ~2x of the paper's rounded estimate.
	sec = titan.RedistributeSeconds(20e12, 16384)
	if sec < 300 || sec > 1300 {
		t.Errorf("20 TB redistribute = %v s, paper says ~600 (2x band)", sec)
	}
}

func TestIOSecondsScalesWithNodes(t *testing.T) {
	titan := Titan()
	// Small jobs scale with node count...
	one := titan.IOSeconds(1e12, 1)
	four := titan.IOSeconds(1e12, 4)
	if math.Abs(one/four-4) > 1e-9 {
		t.Errorf("I/O should scale linearly at small node counts: %v vs %v", one, four)
	}
	// ...but the aggregate Lustre cap binds at full machine: doubling a
	// full-machine job cannot go faster than the cap.
	capped := titan.IOSeconds(1e12, titan.Nodes)
	wantCap := 1e12 / titan.IOBandwidth
	if math.Abs(capped-wantCap) > 1e-9 {
		t.Errorf("full-machine I/O = %v, want cap %v", capped, wantCap)
	}
}

// centerSeconds is the modelled time to find the MBP center of one halo
// of n particles on m, as the workflow models price it: n² pairs at
// CenterPairSeconds, scaled by the machine's kernel factor.
func centerSeconds(m Machine, useGPU bool, n float64) float64 {
	return n * n * DefaultCosts().CenterPairSeconds * m.KernelFactor(useGPU)
}

// Table 2 anchor: centers of a z=0 node with a 25M-particle halo project to
// ~21,250 GPU seconds on Titan.
func TestCenterSecondsTable2Anchor(t *testing.T) {
	titan := Titan()
	sec := centerSeconds(titan, true, 25_000_000)
	if sec < 15000 || sec > 28000 {
		t.Errorf("25M-particle center = %v s, paper's slowest node is 21,250", sec)
	}
	// GPU/CPU factor.
	cpuSec := centerSeconds(titan, false, 25_000_000)
	if math.Abs(cpuSec/sec-50) > 1e-9 {
		t.Errorf("CPU/GPU = %v", cpuSec/sec)
	}
}

// The paper's 10,000x scaling example: "finding the MBP center of a halo
// with 10 million particles can take 10,000 times longer than for a halo
// with 100,000 particles" (§3.3.2).
func TestCenterSecondsQuadraticScaling(t *testing.T) {
	titan := Titan()
	big := centerSeconds(titan, true, 10_000_000)
	small := centerSeconds(titan, true, 100_000)
	if ratio := big / small; math.Abs(ratio-10000) > 1 {
		t.Errorf("scaling ratio = %v, want 10,000", ratio)
	}
}

// Table 2 anchor: FOF at z=0 with 32.8M particles/node ~ 2000 s.
func TestFOFSecondsTable2Anchor(t *testing.T) {
	costs := DefaultCosts()
	titan := Titan()
	nLocal := 8192 * 8192 * 8192 / 16384
	sec := costs.FOFSeconds(titan, nLocal, 1.0)
	if sec < 1500 || sec > 2700 {
		t.Errorf("z=0 FOF = %v s/node, paper's range is 1859-2143", sec)
	}
	// Earlier slices are faster: Table 2 slice 60 (z=1.68) shows ~400 s.
	earlier := costs.FOFSeconds(titan, nLocal, 0.45)
	if earlier >= sec {
		t.Error("FOF should be faster at higher redshift")
	}
	if ratio := sec / earlier; ratio < 2 || ratio > 10 {
		t.Errorf("Find growth slice60->100 = %v, paper shows ~5x", ratio)
	}
}

func TestSubhaloSeconds(t *testing.T) {
	costs := DefaultCosts()
	small := costs.SubhaloCost(10000)
	big := costs.SubhaloCost(1000000)
	if big <= small*50 {
		t.Errorf("subhalo cost should grow superlinearly: %v vs %v", small, big)
	}
	if costs.SubhaloCost(1)+costs.SubhaloCost(0) != 0 {
		t.Error("degenerate halos should cost nothing")
	}
}

// Table 4 anchors for the refined I/O model.
func TestIOModelTable4Anchors(t *testing.T) {
	titan := Titan()
	// 40 GB Level 1 on 32 nodes: ~5 s (Table 4 off-line write/read).
	if sec := titan.IOSeconds(40e9, 32); sec < 3 || sec > 10 {
		t.Errorf("L1 I/O on 32 nodes = %v s, paper says ~5", sec)
	}
	// 40 GB redistribution over 32 nodes: ~435 s (Table 4 off-line).
	if sec := titan.RedistributeSeconds(40e9, 32); sec < 250 || sec > 700 {
		t.Errorf("L1 redistribute on 32 nodes = %v s, paper says 435", sec)
	}
	// 5 GB Level 2 redistribution over 4 nodes must beat the off-line
	// number by more than a factor of two (§4.2 "reduces the I/O time and
	// time for redistribution of the particles by more than a factor of
	// two").
	l2 := titan.RedistributeSeconds(5e9, 4)
	l1 := titan.RedistributeSeconds(40e9, 32)
	if l2*2 > l1 {
		t.Errorf("L2 redistribute %v not well under half of L1's %v", l2, l1)
	}
}

func TestValidateAllBranches(t *testing.T) {
	cases := []func(*Machine){
		func(m *Machine) { m.Nodes = 0 },
		func(m *Machine) { m.ChargeFactor = 0 },
		func(m *Machine) { m.CPUFactor = 0 },
		func(m *Machine) { m.IOBandwidth = 0 },
		func(m *Machine) { m.NetBandwidth = 0 },
	}
	for i, mutate := range cases {
		m := Titan()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestFOFSecondsDegenerateGrowth(t *testing.T) {
	costs := DefaultCosts()
	titan := Titan()
	// dRel <= 0 falls back to 1 (no growth scaling).
	if got, want := costs.FOFSeconds(titan, 1000, 0), costs.FOFSeconds(titan, 1000, 1); got != want {
		t.Errorf("dRel=0 -> %v, want %v", got, want)
	}
}

func TestSubhaloExponentDefault(t *testing.T) {
	c := AnalysisCosts{SubhaloParticleSeconds: 1}
	// Unset exponent falls back to 1.8.
	if got := c.SubhaloCost(100); got != math.Pow(100, 1.8) {
		t.Errorf("default exponent cost = %v", got)
	}
	if c.SubhaloCost(1) != 0 {
		t.Error("n<2 should cost 0")
	}
}

func TestBandwidthZeroRateFallbacks(t *testing.T) {
	m := Titan()
	m.PerNodeIOBandwidth = 0
	// Falls back to the aggregate cap.
	if sec := m.IOSeconds(1e9, 4); sec != 1e9/m.IOBandwidth {
		t.Errorf("IO fallback = %v", sec)
	}
	m.PerNodeNetBandwidth = 0
	if sec := m.RedistributeSeconds(1e9, 4); sec != 1e9/m.NetBandwidth {
		t.Errorf("net fallback = %v", sec)
	}
	// Aggregate cap binds for huge jobs.
	m2 := Titan()
	if sec := m2.RedistributeSeconds(1e12, m2.Nodes*10); sec != 1e12/m2.NetBandwidth {
		t.Errorf("net cap = %v", sec)
	}
}
