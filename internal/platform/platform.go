// Package platform models the HPC machines of the paper's evaluation —
// Titan (OLCF's Cray XK7 with K20X GPUs), Moonlight (LANL's M2090 GPU
// cluster) and Rhea (OLCF's CPU analysis cluster) — together with the
// calibrated per-kernel cost models that project analysis times onto them.
//
// These models are the substitution for hardware this reproduction cannot
// access (DESIGN.md §2). Every constant is anchored either to a number the
// paper states outright (charging policy, GPU/CPU factor of ~50,
// Moonlight/Titan factor of 0.55, 20 TB read in ~10 minutes) or to
// per-particle costs measured by running this repository's real analysis
// kernels (see EXPERIMENTS.md). The discrete-event workflow engine
// (internal/core) consumes these models to regenerate Tables 2-4 and
// Figures 3-4.
package platform

import (
	"fmt"
	"math"
)

// Machine describes one HPC platform.
type Machine struct {
	// Name for reports.
	Name string
	// Nodes available in total.
	Nodes int
	// CoresPerNode physical CPU cores per node.
	CoresPerNode int
	// ChargeFactor is core-hours charged per node-hour. "an hour per node
	// leads to a charge of 30 core hours" on Titan (Table 3 caption) — the
	// GPU premium over the 16 CPU cores.
	ChargeFactor float64
	// HasGPU reports accelerator availability (Rhea "does not currently
	// have GPUs", §3.2).
	HasGPU bool
	// GPUFactor is the speedup of the data-parallel center finder on one
	// node's GPU over one CPU core — the paper's "approximately a factor
	// of fifty speed-up" (§4.1) for Titan's K20X.
	GPUFactor float64
	// CPUFactor scales kernel times relative to Titan (1.0): Moonlight's
	// older hardware makes Titan "faster by a factor of roughly 0.55"
	// (§4.1), so Moonlight carries 1/0.55.
	CPUFactor float64
	// IOBandwidth is the aggregate file-system bandwidth cap in bytes/s
	// (the Lustre peak a full-machine job can approach).
	IOBandwidth float64
	// PerNodeIOBandwidth is the file-system bandwidth one compute node can
	// drive; a job's I/O rate is min(IOBandwidth, nodes·PerNodeIOBandwidth).
	// Calibrated from Table 4: 40 GB Level 1 written/read in ~5 s by a
	// 32-node job -> ~250 MB/s/node.
	PerNodeIOBandwidth float64
	// NetBandwidth is the aggregate interconnect cap in bytes/s for
	// particle redistribution at full machine scale.
	NetBandwidth float64
	// PerNodeNetBandwidth is the per-node alltoall redistribution rate
	// before the log(nodes) collective penalty. Calibrated from Table 4's
	// 435 s to redistribute 40 GB over 32 nodes (~2.9 MB/s/node effective,
	// i.e. ~14 MB/s/node before the log2(32) factor); the same constants
	// put the Q Continuum's 20 TB full-machine redistribution at the
	// paper's ~10-minute scale.
	PerNodeNetBandwidth float64
	// SmallJobLimit, when > 0, caps how many sub-SmallJobNodes jobs run
	// simultaneously ("The queue policy only allows two jobs that use less
	// than 125 nodes to run simultaneously", §3.2).
	SmallJobLimit int
	SmallJobNodes int
}

// Validate reports configuration errors.
func (m Machine) Validate() error {
	switch {
	case m.Nodes <= 0:
		return fmt.Errorf("platform: %s has %d nodes", m.Name, m.Nodes)
	case m.ChargeFactor <= 0:
		return fmt.Errorf("platform: %s charge factor %g", m.Name, m.ChargeFactor)
	case m.CPUFactor <= 0:
		return fmt.Errorf("platform: %s CPU factor %g", m.Name, m.CPUFactor)
	case m.IOBandwidth <= 0 || m.NetBandwidth <= 0:
		return fmt.Errorf("platform: %s bandwidths must be positive", m.Name)
	}
	return nil
}

// ChargeCoreHours converts a node allocation held for a duration into the
// facility's core-hour charge.
func (m Machine) ChargeCoreHours(nodes int, seconds float64) float64 {
	return float64(nodes) * seconds / 3600 * m.ChargeFactor
}

// KernelFactor returns the per-node time multiplier for the data-parallel
// kernels: GPU nodes divide by the GPU speedup, and all times scale by the
// machine's CPU generation factor.
func (m Machine) KernelFactor(useGPU bool) float64 {
	f := m.CPUFactor
	if useGPU && m.HasGPU && m.GPUFactor > 0 {
		f /= m.GPUFactor
	}
	return f
}

// Titan returns the OLCF Cray XK7 model: 16-core AMD nodes with one K20X
// GPU each, 30x node-hour charging, and the Lustre bandwidth implied by
// "Reading the full particle set from one snapshot on Titan takes roughly
// 10 minutes" for 20 TB (§4.1) — ~33 GB/s. Redistribution of the same data
// takes "another 10 minutes", giving the same effective aggregate network
// figure.
func Titan() Machine {
	return Machine{
		Name:                "Titan",
		Nodes:               18688,
		CoresPerNode:        16,
		ChargeFactor:        30,
		HasGPU:              true,
		GPUFactor:           50,
		CPUFactor:           1,
		IOBandwidth:         33e9,
		PerNodeIOBandwidth:  250e6,
		NetBandwidth:        33e9,
		PerNodeNetBandwidth: 14e6,
		SmallJobLimit:       2,
		SmallJobNodes:       125,
	}
}

// Moonlight returns the LANL GPU-cluster model (M2090s, one hardware
// generation behind the K20X: times are 1/0.55 of Titan's). Its queue is
// friendly to "small, long analysis jobs" (§4.1): no small-job cap.
func Moonlight() Machine {
	return Machine{
		Name:                "Moonlight",
		Nodes:               308,
		CoresPerNode:        16,
		ChargeFactor:        16,
		HasGPU:              true,
		GPUFactor:           50,
		CPUFactor:           1 / 0.55,
		IOBandwidth:         5e9,
		PerNodeIOBandwidth:  250e6,
		NetBandwidth:        5e9,
		PerNodeNetBandwidth: 14e6,
	}
}

// Rhea returns the OLCF CPU analysis-cluster model: short queue waits but
// "the lack of GPUs slowed down the center finding considerably" (§4.2).
func Rhea() Machine {
	return Machine{
		Name:                "Rhea",
		Nodes:               196,
		CoresPerNode:        16,
		ChargeFactor:        16,
		HasGPU:              false,
		GPUFactor:           1,
		CPUFactor:           1,
		IOBandwidth:         10e9,
		PerNodeIOBandwidth:  250e6,
		NetBandwidth:        10e9,
		PerNodeNetBandwidth: 14e6,
	}
}

// AnalysisCosts holds the calibrated per-kernel coefficients, expressed as
// Titan-CPU-core seconds; Machine.KernelFactor maps them onto any machine.
type AnalysisCosts struct {
	// CenterPairSeconds is the cost per particle pair of the O(n²) MBP
	// potential sum on one Titan CPU node (the unit every coefficient uses;
	// KernelFactor divides by the GPU factor when a GPU runs the kernel).
	// Anchored to Table 2: the z=0 slowest node (a ~25M-particle halo plus
	// neighbours) projects to 21,250 Titan-GPU seconds, i.e. ~3.4e-11
	// s/pair on the K20X and 50x that, 1.7e-9 s/pair, on the CPU.
	CenterPairSeconds float64
	// FOFParticleSeconds is the per-particle cost of k-d tree FOF halo
	// finding at z=0 clustering. Anchored to Table 2: 2143 s max for
	// 8192³/16384 = 32.8M particles per node -> ~6.5e-5 s/particle
	// (includes the tree build and traversal constants).
	FOFParticleSeconds float64
	// FOFGrowth scales FOF time with cosmic structure growth: time at
	// scale factor a is FOFParticleSeconds · (D(a)/D(1))^FOFGrowth per
	// particle. Table 2's Find column grows ~5x from slice 60 to 100.
	FOFGrowth float64
	// SubhaloParticleSeconds is the coefficient of the tree-based subhalo
	// finder's cost (CPU only — "our current implementation based on a
	// tree-algorithm does not take advantage of GPUs", §4.2), applied as
	// c·n^SubhaloExponent per halo of n particles. The multi-pass
	// unbinding makes the practical scaling strongly superlinear; the
	// exponent is calibrated so the downscaled run's per-node imbalance
	// matches §4.2's 8172 s vs 1457 s (a factor > 5).
	SubhaloParticleSeconds float64
	// SubhaloExponent is the per-halo size exponent (default 1.8).
	SubhaloExponent float64
	// SimStepSeconds is the wall time of one full simulation step for the
	// reference 1024³/32-node configuration (Table 4: ~775 s).
	SimStepSeconds float64
}

// DefaultCosts returns coefficients calibrated to the paper's anchors (see
// the per-field comments and EXPERIMENTS.md for the derivations).
func DefaultCosts() AnalysisCosts {
	return AnalysisCosts{
		CenterPairSeconds:      1.7e-9,
		FOFParticleSeconds:     6.5e-5,
		FOFGrowth:              2.0,
		SubhaloParticleSeconds: 1.1e-8,
		SubhaloExponent:        1.8,
		SimStepSeconds:         775,
	}
}

// FOFSeconds returns the modelled halo-identification time for nLocal
// particles on one node at linear growth factor dRel = D(a)/D(1).
func (c AnalysisCosts) FOFSeconds(m Machine, nLocal int, dRel float64) float64 {
	if dRel <= 0 {
		dRel = 1
	}
	return float64(nLocal) * c.FOFParticleSeconds * math.Pow(dRel, c.FOFGrowth) * m.CPUFactor
}

// subhaloExponent returns the configured exponent, defaulting to 1.8.
func (c AnalysisCosts) subhaloExponent() float64 {
	if c.SubhaloExponent > 1 {
		return c.SubhaloExponent
	}
	return 1.8
}

// SubhaloCost returns the modelled per-halo substructure-finding cost
// c·n^exponent in Titan-CPU seconds (before machine factors).
func (c AnalysisCosts) SubhaloCost(n float64) float64 {
	if n < 2 {
		return 0
	}
	return c.SubhaloParticleSeconds * math.Pow(n, c.subhaloExponent())
}

// IOSeconds returns the modelled time for a nodes-wide job to read or
// write the given bytes: the job drives nodes·PerNodeIOBandwidth, capped
// by the file system's aggregate bandwidth.
func (m Machine) IOSeconds(bytes float64, nodes int) float64 {
	rate := float64(nodes) * m.PerNodeIOBandwidth
	if rate > m.IOBandwidth {
		rate = m.IOBandwidth
	}
	if rate <= 0 {
		rate = m.IOBandwidth
	}
	return bytes / rate
}

// RedistributeSeconds returns the modelled alltoall particle-exchange time
// for the given bytes over nodes participants. The effective rate is
// nodes·PerNodeNetBandwidth divided by a log2(nodes) collective penalty
// and capped by the aggregate interconnect bandwidth.
func (m Machine) RedistributeSeconds(bytes float64, nodes int) float64 {
	n := float64(nodes)
	if n < 2 {
		n = 2
	}
	rate := float64(nodes) * m.PerNodeNetBandwidth / math.Log2(n)
	if rate > m.NetBandwidth {
		rate = m.NetBandwidth
	}
	if rate <= 0 {
		rate = m.NetBandwidth
	}
	return bytes / rate
}
