// Package cosmo supplies the ΛCDM background cosmology the simulation and
// analysis layers share: expansion history, linear growth, the primordial
// matter power spectrum used to seed initial conditions, and a Press-
// Schechter-style halo mass function used by the platform model to project
// halo populations at paper scale (8192³ particles) without running the
// paper-scale simulation.
//
// The paper's simulations (Q Continuum and its 1024³ downscaled companion)
// use the standard ΛCDM parameters of their era; the defaults here follow
// the WMAP-7-like values HACC runs were configured with.
package cosmo

import (
	"fmt"
	"math"
	"sync"
)

// Params holds the background cosmological parameters.
type Params struct {
	// OmegaM is the total matter density parameter today.
	OmegaM float64
	// OmegaL is the dark-energy density parameter today.
	OmegaL float64
	// OmegaB is the baryon density parameter (shapes the transfer function).
	OmegaB float64
	// H0 is the Hubble constant in km/s/Mpc.
	H0 float64
	// Sigma8 normalizes the power spectrum within a sphere of 8 Mpc/h.
	Sigma8 float64
	// NS is the scalar spectral index.
	NS float64
}

// Default returns WMAP-7-like parameters matching the HACC production runs.
func Default() Params {
	return Params{OmegaM: 0.265, OmegaL: 0.735, OmegaB: 0.0448, H0: 71.0, Sigma8: 0.8, NS: 0.963}
}

// Validate reports an error for unphysical parameters.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"OmegaM", p.OmegaM}, {"OmegaL", p.OmegaL}, {"OmegaB", p.OmegaB}, {"H0", p.H0}, {"Sigma8", p.Sigma8}, {"NS", p.NS}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("cosmo: %s must be finite, got %g", f.name, f.v)
		}
	}
	switch {
	case p.OmegaM <= 0:
		return fmt.Errorf("cosmo: OmegaM must be positive, got %g", p.OmegaM)
	case p.OmegaL < 0:
		return fmt.Errorf("cosmo: OmegaL must be non-negative, got %g", p.OmegaL)
	case p.OmegaB < 0:
		return fmt.Errorf("cosmo: OmegaB must be non-negative, got %g", p.OmegaB)
	case p.H0 <= 0:
		return fmt.Errorf("cosmo: H0 must be positive, got %g", p.H0)
	case p.Sigma8 <= 0:
		return fmt.Errorf("cosmo: Sigma8 must be positive, got %g", p.Sigma8)
	}
	return nil
}

// LittleH returns the dimensionless Hubble parameter h = H0/100.
func (p Params) LittleH() float64 { return p.H0 / 100 }

// ScaleFactor converts redshift z to scale factor a = 1/(1+z).
func ScaleFactor(z float64) float64 { return 1 / (1 + z) }

// Redshift converts scale factor a to redshift z = 1/a - 1.
func Redshift(a float64) float64 { return 1/a - 1 }

// E returns the dimensionless Hubble rate E(a) = H(a)/H0 for a flat-ish
// matter + Lambda universe (curvature absorbs any deficit).
func (p Params) E(a float64) float64 {
	omegaK := 1 - p.OmegaM - p.OmegaL
	return math.Sqrt(p.OmegaM/(a*a*a) + omegaK/(a*a) + p.OmegaL)
}

// OmegaMAt returns the matter density parameter at scale factor a.
func (p Params) OmegaMAt(a float64) float64 {
	e := p.E(a)
	return p.OmegaM / (a * a * a * e * e)
}

// GrowthFactor returns the linear growth factor D(a), normalized so that
// D(1) = 1, using the Carroll, Press & Turner (1992) fitting form. The
// Zel'dovich initial-condition generator scales the z=0 power spectrum back
// to the starting redshift with this factor.
func (p Params) GrowthFactor(a float64) float64 {
	return p.growthUnnormalized(a) / p.growthUnnormalized(1)
}

func (p Params) growthUnnormalized(a float64) float64 {
	om := p.OmegaMAt(a)
	e := p.E(a)
	ol := p.OmegaL / (e * e)
	g := 2.5 * om / (math.Pow(om, 4.0/7.0) - ol + (1+om/2)*(1+ol/70))
	return g * a
}

// GrowthRate returns the logarithmic growth rate f = dlnD/dlna ≈ Ωm(a)^0.55,
// which sets the Zel'dovich velocities.
func (p Params) GrowthRate(a float64) float64 {
	return math.Pow(p.OmegaMAt(a), 0.55)
}

// TransferBBKS evaluates the BBKS (Bardeen, Bond, Kaiser & Szalay 1986) CDM
// transfer function with the Sugiyama (1995) baryon-corrected shape
// parameter. k is in h/Mpc.
func (p Params) TransferBBKS(k float64) float64 {
	if k <= 0 {
		return 1
	}
	h := p.LittleH()
	gamma := p.OmegaM * h * math.Exp(-p.OmegaB*(1+math.Sqrt(2*h)/p.OmegaM))
	q := k / gamma
	return math.Log(1+2.34*q) / (2.34 * q) *
		math.Pow(1+3.89*q+math.Pow(16.1*q, 2)+math.Pow(5.46*q, 3)+math.Pow(6.71*q, 4), -0.25)
}

// PowerSpectrum returns the linear matter power spectrum P(k) at z=0 in
// (Mpc/h)³, normalized to Sigma8. k is in h/Mpc.
func (p Params) PowerSpectrum(k float64) float64 {
	if k <= 0 {
		return 0
	}
	t := p.TransferBBKS(k)
	unnorm := math.Pow(k, p.NS) * t * t
	return unnorm * p.spectrum().norm
}

// The σ(R) integral is a trapezoid rule over sigmaSteps intervals in ln k.
const (
	lnkMin     = -9.0
	lnkMax     = 9.0
	sigmaSteps = 2048
	dlnk       = (lnkMax - lnkMin) / sigmaSteps
)

// spectrum is what the σ(R) integrand takes from Params alone: the k grid,
// the unnormalized P(k) on it (an exp, a log and five pows per sample) and
// the sigma8 normalization. Left per sample and radius: the window.
type spectrum struct {
	k, pk []float64
	norm  float64
}

// spectra holds one spectrum per parameter set; Params is comparable (all
// scalar fields), so it keys the map directly. Initial conditions evaluate
// PowerSpectrum once per Fourier mode, a population σ(R) ~1000 times.
var spectra sync.Map // Params -> *spectrum

func (p Params) spectrum() *spectrum {
	return cached(&spectra, p, func() *spectrum {
		s := &spectrum{k: make([]float64, sigmaSteps+1), pk: make([]float64, sigmaSteps+1)}
		for i := range s.k {
			k := math.Exp(lnkMin + float64(i)*dlnk)
			t := p.TransferBBKS(k)
			s.k[i], s.pk[i] = k, math.Pow(k, p.NS)*t*t
		}
		s.norm = p.Sigma8 * p.Sigma8 / s.sigmaR2Unnormalized(8)
		return s
	})
}

// cached returns build's value for key, built once per process and key. The
// stored values are exact, so a hit is bit-identical to a rebuild. A key
// holding a NaN never equals itself: it would miss every time and leak an
// entry per call, so its value is built and not stored.
func cached[K comparable, V any](m *sync.Map, key K, build func() V) V {
	if v, ok := m.Load(key); ok {
		return v.(V)
	}
	v := build()
	if key != key { //lint:ignore SA4000 true for a key holding a NaN
		return v
	}
	stored, _ := m.LoadOrStore(key, v)
	return stored.(V)
}

// sigmaR2Unnormalized integrates the unnormalized variance smoothed with a
// top-hat window of radius r (Mpc/h) using the trapezoid rule in ln k.
func (s *spectrum) sigmaR2Unnormalized(r float64) float64 {
	sum := 0.0
	for i, k := range s.k {
		w := topHatWindow(k * r)
		integrand := s.pk[i] * w * w * k * k * k / (2 * math.Pi * math.Pi)
		weight := 1.0
		if i == 0 || i == sigmaSteps {
			weight = 0.5
		}
		sum += weight * integrand * dlnk
	}
	return sum
}

// SigmaR returns the rms linear density fluctuation in a top-hat sphere of
// radius r Mpc/h at z=0.
func (p Params) SigmaR(r float64) float64 {
	s := p.spectrum()
	return math.Sqrt(s.sigmaR2Unnormalized(r) * s.norm)
}

func topHatWindow(x float64) float64 {
	if x < 1e-6 {
		return 1 - x*x/10
	}
	return 3 * (math.Sin(x) - x*math.Cos(x)) / (x * x * x)
}

// RhoCrit0 is the critical density today in (Msun/h) / (Mpc/h)³.
const RhoCrit0 = 2.775e11

// MeanMatterDensity returns the comoving mean matter density in
// (Msun/h)/(Mpc/h)³.
func (p Params) MeanMatterDensity() float64 { return p.OmegaM * RhoCrit0 }

// ParticleMass returns the mass of one simulation particle, in Msun/h, for
// np³ particles in a box of side boxSize Mpc/h. The paper quotes
// ~10⁸ Msun for the Q Continuum mass resolution; with its 1300 Mpc/h box
// and 8192³ particles this formula reproduces that scale.
func (p Params) ParticleMass(boxSize float64, np int) float64 {
	vol := boxSize * boxSize * boxSize
	n := float64(np)
	return p.MeanMatterDensity() * vol / (n * n * n)
}

// LagrangianRadius returns the comoving radius (Mpc/h) of a sphere that
// contains mass m (Msun/h) at the mean density.
func (p Params) LagrangianRadius(m float64) float64 {
	return math.Cbrt(3 * m / (4 * math.Pi * p.MeanMatterDensity()))
}

// MassFunction evaluates a Press-Schechter halo mass function:
// dn/dlnM in halos per (Mpc/h)³ per e-folding of mass, at redshift z.
// The platform model uses it to synthesize the paper-scale halo population
// for Figures 3-4 and Table 2 without an 8192³ run; only the shape (steeply
// falling counts with a rare massive tail that grows toward z=0) matters
// for the workflow conclusions.
func (p Params) MassFunction(m, z float64) float64 {
	return p.massFunctionAt(p.sigmaPoint(m), p.GrowthFactor(ScaleFactor(z)))
}

// sigmaPoint is the redshift-independent half of MassFunction at mass m —
// three σ(R) integrals: σ(m) at z=0 and d ln sigma / d ln M.
type sigmaPoint struct{ m, sigma0, dlnSigma float64 }

func (p Params) sigmaPoint(m float64) sigmaPoint {
	// d ln sigma / d ln M via centered difference.
	eps := 0.01
	rp := p.LagrangianRadius(m * (1 + eps))
	rm := p.LagrangianRadius(m * (1 - eps))
	return sigmaPoint{
		m:        m,
		sigma0:   p.SigmaR(p.LagrangianRadius(m)),
		dlnSigma: (math.Log(p.SigmaR(rp)) - math.Log(p.SigmaR(rm))) / (2 * eps),
	}
}

// massFunctionAt is MassFunction's per-redshift half: the Press-Schechter
// multiplicity at linear growth factor d.
func (p Params) massFunctionAt(pt sigmaPoint, d float64) float64 {
	const deltaC = 1.686
	sigma := pt.sigma0 * d
	if sigma <= 0 {
		return 0
	}
	nu := deltaC / sigma
	f := math.Sqrt(2/math.Pi) * nu * math.Exp(-nu*nu/2)
	rho := p.MeanMatterDensity()
	return f * (rho / pt.m) * math.Abs(pt.dlnSigma)
}

// massSubSteps is the number of sub-steps per bin for the integral in ln M.
const massSubSteps = 4

// massGridKey names one logarithmic mass grid. No seed and no redshift is
// in it: every population of a box, at any slice, shares one grid.
type massGridKey struct {
	p           Params
	mMin, ratio float64
	bins        int
}

var massGrids sync.Map // massGridKey -> []sigmaPoint, massSubSteps per bin

func (p Params) massGrid(mMin, ratio float64, bins int) []sigmaPoint {
	return cached(&massGrids, massGridKey{p, mMin, ratio, bins}, func() []sigmaPoint {
		grid := make([]sigmaPoint, 0, bins*massSubSteps)
		dlnm := math.Log(ratio) / massSubSteps
		for i := 0; i < bins; i++ {
			lo := mMin * math.Pow(ratio, float64(i))
			for s := 0; s < massSubSteps; s++ {
				grid = append(grid, p.sigmaPoint(lo*math.Exp((float64(s)+0.5)*dlnm)))
			}
		}
		return grid
	})
}

// ExpectedHaloCounts integrates the mass function over logarithmic mass
// bins for a box of side boxSize (Mpc/h) at redshift z, returning the
// expected number of halos per bin. Bin i covers masses
// [mMin·ratio^i, mMin·ratio^(i+1)); no bins, or a ratio not above 1, is no
// mass range and returns no counts.
func (p Params) ExpectedHaloCounts(boxSize, mMin float64, ratio float64, bins int, z float64) []float64 {
	if bins <= 0 || ratio <= 1 || math.IsNaN(ratio) {
		return nil
	}
	vol := boxSize * boxSize * boxSize
	d := p.GrowthFactor(ScaleFactor(z))
	dlnm := math.Log(ratio) / massSubSteps
	grid := p.massGrid(mMin, ratio, bins)
	out := make([]float64, bins)
	for i := range out {
		acc := 0.0
		for _, pt := range grid[i*massSubSteps : (i+1)*massSubSteps] {
			acc += p.massFunctionAt(pt, d) * dlnm
		}
		out[i] = acc * vol
	}
	return out
}
