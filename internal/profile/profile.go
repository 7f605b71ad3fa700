// Package profile measures radial halo density profiles and NFW
// concentrations — the Level 3 "halo properties" the paper's workflow
// exists to compute, and the reason center accuracy matters: "The
// concentration is determined from the density profile of the halo as a
// function of radius — if the center is not exactly at the density
// maximum, the concentration will be underestimated" (§3.3.2).
package profile

import (
	"fmt"
	"math"
)

// Profile is a binned radial density profile around a center.
type Profile struct {
	// REdges are the nBins+1 logarithmic radial bin edges.
	REdges []float64
	// Rho is the density in each shell (mass / shell volume).
	Rho []float64
	// Count is the particles per shell.
	Count []int
	// MEnclosed is the cumulative mass inside each bin's outer edge.
	MEnclosed []float64
}

// Options configures profile measurement.
type Options struct {
	// ParticleMass is the equal particle mass (> 0).
	ParticleMass float64
	// RMin and RMax bound the logarithmic bins; RMin > 0.
	RMin, RMax float64
	// Bins is the number of radial bins.
	Bins int
}

func (o Options) validate() error {
	switch {
	case o.ParticleMass <= 0:
		return fmt.Errorf("profile: particle mass %g must be positive", o.ParticleMass)
	case o.RMin <= 0 || o.RMax <= o.RMin:
		return fmt.Errorf("profile: invalid radial range [%g, %g]", o.RMin, o.RMax)
	case o.Bins <= 0:
		return fmt.Errorf("profile: bins %d must be positive", o.Bins)
	}
	return nil
}

// Measure bins the given (unwrapped) member coordinates radially around
// (cx, cy, cz).
func Measure(x, y, z []float64, cx, cy, cz float64, o Options) (*Profile, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	p := &Profile{
		REdges:    make([]float64, o.Bins+1),
		Rho:       make([]float64, o.Bins),
		Count:     make([]int, o.Bins),
		MEnclosed: make([]float64, o.Bins),
	}
	logMin := math.Log10(o.RMin)
	logMax := math.Log10(o.RMax)
	for i := 0; i <= o.Bins; i++ {
		p.REdges[i] = math.Pow(10, logMin+(logMax-logMin)*float64(i)/float64(o.Bins))
	}
	inner := 0 // particles inside RMin count toward enclosed mass
	for i := range x {
		dx, dy, dz := x[i]-cx, y[i]-cy, z[i]-cz
		r := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if r < o.RMin {
			inner++
			continue
		}
		if r >= o.RMax {
			continue
		}
		bin := int((math.Log10(r) - logMin) / (logMax - logMin) * float64(o.Bins))
		if bin >= o.Bins {
			bin = o.Bins - 1
		}
		p.Count[bin]++
	}
	cum := inner
	for b := 0; b < o.Bins; b++ {
		cum += p.Count[b]
		p.MEnclosed[b] = float64(cum) * o.ParticleMass
		rLo, rHi := p.REdges[b], p.REdges[b+1]
		vol := 4.0 / 3.0 * math.Pi * (rHi*rHi*rHi - rLo*rLo*rLo)
		p.Rho[b] = float64(p.Count[b]) * o.ParticleMass / vol
	}
	return p, nil
}

// NFW evaluates the Navarro-Frenk-White profile
// rho(r) = rho0 / ((r/rs)(1+r/rs)²).
func NFW(r, rho0, rs float64) float64 {
	if r <= 0 || rs <= 0 {
		return 0
	}
	q := r / rs
	return rho0 / (q * (1 + q) * (1 + q))
}

// FitNFW fits (rho0, rs) to the measured profile by scanning rs over the
// radial range and solving rho0 in closed form per rs (least squares in
// log density over non-empty bins). It returns the best-fit parameters
// and the rms log-residual.
func (p *Profile) FitNFW() (rho0, rs, residual float64, err error) {
	var rCenters, logRho []float64
	for b := range p.Rho {
		if p.Count[b] < 2 {
			continue
		}
		rc := math.Sqrt(p.REdges[b] * p.REdges[b+1])
		rCenters = append(rCenters, rc)
		logRho = append(logRho, math.Log(p.Rho[b]))
	}
	if len(rCenters) < 3 {
		return 0, 0, 0, fmt.Errorf("profile: only %d usable bins for NFW fit", len(rCenters))
	}
	rMin := p.REdges[0]
	rMax := p.REdges[len(p.REdges)-1]
	best := math.Inf(1)
	const scanSteps = 200
	for s := 0; s <= scanSteps; s++ {
		trialRs := rMin * math.Pow(rMax/rMin, float64(s)/scanSteps)
		// For fixed rs, log rho0 enters additively: solve by mean residual.
		sum := 0.0
		for i, rc := range rCenters {
			shape := math.Log(NFW(rc, 1, trialRs))
			sum += logRho[i] - shape
		}
		logRho0 := sum / float64(len(rCenters))
		ss := 0.0
		for i, rc := range rCenters {
			model := logRho0 + math.Log(NFW(rc, 1, trialRs))
			d := logRho[i] - model
			ss += d * d
		}
		if ss < best {
			best = ss
			rs = trialRs
			rho0 = math.Exp(logRho0)
		}
	}
	return rho0, rs, math.Sqrt(best / float64(len(rCenters))), nil
}

// Concentration returns c = rVir / rs for a virial radius and a fitted
// scale radius.
func Concentration(rVir, rs float64) (float64, error) {
	if rVir <= 0 || rs <= 0 {
		return 0, fmt.Errorf("profile: invalid radii rVir=%g rs=%g", rVir, rs)
	}
	return rVir / rs, nil
}
