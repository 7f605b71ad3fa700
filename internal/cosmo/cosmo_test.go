package cosmo

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{OmegaM: 0, OmegaL: 0.7, H0: 70, Sigma8: 0.8},
		{OmegaM: 0.3, OmegaL: -1, H0: 70, Sigma8: 0.8},
		{OmegaM: 0.3, OmegaL: 0.7, H0: 0, Sigma8: 0.8},
		{OmegaM: 0.3, OmegaL: 0.7, H0: 70, Sigma8: 0},
		{OmegaM: 0.3, OmegaL: 0.7, OmegaB: -0.04, H0: 70, Sigma8: 0.8},
	}
	// NaN <= 0 is false: every field needs the finiteness check.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(*Params){
			func(p *Params) { p.OmegaM = v }, func(p *Params) { p.OmegaL = v },
			func(p *Params) { p.OmegaB = v }, func(p *Params) { p.H0 = v },
			func(p *Params) { p.Sigma8 = v }, func(p *Params) { p.NS = v },
		} {
			p := Default()
			set(&p)
			bad = append(bad, p)
		}
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestScaleFactorRedshiftInverse(t *testing.T) {
	for _, z := range []float64{0, 0.5, 1, 10, 200} {
		a := ScaleFactor(z)
		if got := Redshift(a); math.Abs(got-z) > 1e-12*(1+z) {
			t.Errorf("Redshift(ScaleFactor(%v)) = %v", z, got)
		}
	}
	if ScaleFactor(0) != 1 {
		t.Error("a(z=0) should be 1")
	}
}

func TestHubbleRateToday(t *testing.T) {
	p := Default()
	// Flat universe: E(1) = 1.
	if e := p.E(1); math.Abs(e-1) > 1e-6 {
		t.Errorf("E(1) = %v, want 1", e)
	}
	// Matter domination at early times: E ~ sqrt(Om/a³).
	a := 1e-3
	want := math.Sqrt(p.OmegaM / (a * a * a))
	if e := p.E(a); math.Abs(e-want)/want > 0.01 {
		t.Errorf("E(%v) = %v, want ~%v", a, e, want)
	}
}

func TestOmegaMAtLimits(t *testing.T) {
	p := Default()
	if om := p.OmegaMAt(1); math.Abs(om-p.OmegaM) > 1e-9 {
		t.Errorf("OmegaM(a=1) = %v", om)
	}
	if om := p.OmegaMAt(1e-4); math.Abs(om-1) > 0.01 {
		t.Errorf("OmegaM at early times = %v, want ~1", om)
	}
}

func TestGrowthFactorNormalizedAndMonotonic(t *testing.T) {
	p := Default()
	if d := p.GrowthFactor(1); math.Abs(d-1) > 1e-12 {
		t.Errorf("D(1) = %v, want 1", d)
	}
	prev := 0.0
	for a := 0.01; a <= 1.0; a += 0.01 {
		d := p.GrowthFactor(a)
		if d <= prev {
			t.Fatalf("growth factor not monotonic at a=%v: %v <= %v", a, d, prev)
		}
		prev = d
	}
	// During matter domination D ~ a.
	ratio := p.GrowthFactor(0.02) / p.GrowthFactor(0.01)
	if math.Abs(ratio-2) > 0.02 {
		t.Errorf("matter-era growth ratio = %v, want ~2", ratio)
	}
}

func TestGrowthRateBounds(t *testing.T) {
	p := Default()
	f0 := p.GrowthRate(1)
	if f0 <= 0.4 || f0 >= 0.6 {
		t.Errorf("f(z=0) = %v, want ~0.5 for OmegaM=0.265", f0)
	}
	fEarly := p.GrowthRate(0.01)
	if math.Abs(fEarly-1) > 0.01 {
		t.Errorf("f early = %v, want ~1", fEarly)
	}
}

func TestTransferBBKSLimits(t *testing.T) {
	p := Default()
	if tr := p.TransferBBKS(1e-6); math.Abs(tr-1) > 0.01 {
		t.Errorf("T(k->0) = %v, want 1", tr)
	}
	if tr := p.TransferBBKS(0); tr != 1 {
		t.Errorf("T(0) = %v", tr)
	}
	// Monotonically decreasing.
	prev := 2.0
	for _, k := range []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100} {
		tr := p.TransferBBKS(k)
		if tr >= prev {
			t.Errorf("transfer not decreasing at k=%v", k)
		}
		if tr < 0 {
			t.Errorf("negative transfer at k=%v", k)
		}
		prev = tr
	}
}

func TestSigma8SelfConsistent(t *testing.T) {
	p := Default()
	if got := p.SigmaR(8); math.Abs(got-p.Sigma8) > 1e-6 {
		t.Errorf("SigmaR(8) = %v, want %v", got, p.Sigma8)
	}
}

func TestSigmaRDecreasesWithRadius(t *testing.T) {
	p := Default()
	prev := math.Inf(1)
	for _, r := range []float64{0.5, 1, 2, 4, 8, 16, 32} {
		s := p.SigmaR(r)
		if s >= prev {
			t.Errorf("SigmaR not decreasing at r=%v", r)
		}
		prev = s
	}
}

func TestPowerSpectrumShape(t *testing.T) {
	p := Default()
	if p.PowerSpectrum(0) != 0 {
		t.Error("P(0) should be 0")
	}
	if p.PowerSpectrum(-1) != 0 {
		t.Error("P(k<0) should be 0")
	}
	// P(k) rises as ~k^ns at low k, falls at high k: peak in between.
	pLow := p.PowerSpectrum(1e-4)
	pPeak := p.PowerSpectrum(0.02)
	pHigh := p.PowerSpectrum(10)
	if !(pPeak > pLow && pPeak > pHigh) {
		t.Errorf("power spectrum not peaked: %v %v %v", pLow, pPeak, pHigh)
	}
}

func TestParticleMassQContinuumScale(t *testing.T) {
	p := Default()
	// Q Continuum: 8192³ particles, ~1300 Mpc/h box -> ~1.5e8 Msun/h,
	// matching the paper's "~10^8 Msun" mass resolution.
	m := p.ParticleMass(1300/p.LittleH()*p.LittleH(), 8192) // 1300 Mpc/h box
	if m < 2e7 || m > 1e9 {
		t.Errorf("Q Continuum particle mass = %.3g Msun/h, want ~1e8", m)
	}
	// Downscaled run: 1024³ in (162.5 Mpc)³ with similar mass resolution
	// (the paper's key scaling claim: volume drops 512x, resolution similar).
	h := p.LittleH()
	mSmall := p.ParticleMass(162.5*h, 1024)
	mBig := p.ParticleMass(1300*h, 8192)
	if ratio := mSmall / mBig; ratio < 0.5 || ratio > 2.5 {
		t.Errorf("mass resolution ratio small/large = %v, want ~1", ratio)
	}
}

func TestLagrangianRadiusInvertsMass(t *testing.T) {
	p := Default()
	m := 1e13
	r := p.LagrangianRadius(m)
	back := 4 * math.Pi / 3 * r * r * r * p.MeanMatterDensity()
	if math.Abs(back-m)/m > 1e-9 {
		t.Errorf("round trip mass = %v, want %v", back, m)
	}
}

func TestMassFunctionShape(t *testing.T) {
	p := Default()
	// Counts fall steeply with mass.
	n12 := p.MassFunction(1e12, 0)
	n14 := p.MassFunction(1e14, 0)
	n15 := p.MassFunction(1e15, 0)
	if !(n12 > n14 && n14 > n15) {
		t.Errorf("mass function not decreasing: %v %v %v", n12, n14, n15)
	}
	if n12 <= 0 {
		t.Error("mass function should be positive at 1e12")
	}
	// Massive halos are rarer at higher redshift (structures grow).
	if p.MassFunction(1e15, 1.68) >= p.MassFunction(1e15, 0) {
		t.Error("1e15 halos should be rarer at z=1.68 than at z=0")
	}
}

func TestExpectedHaloCountsDecreasing(t *testing.T) {
	p := Default()
	counts := p.ExpectedHaloCounts(162.5*p.LittleH(), 1e11, 10, 4, 0)
	if len(counts) != 4 {
		t.Fatalf("got %d bins", len(counts))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] >= counts[i-1] {
			t.Errorf("bin %d not decreasing: %v >= %v", i, counts[i], counts[i-1])
		}
	}
	if counts[0] <= 0 {
		t.Error("lowest mass bin should have halos")
	}
}

// Property: growth factor stays in (0, 1] for a in (0, 1].
func TestPropertyGrowthFactorBounded(t *testing.T) {
	p := Default()
	f := func(raw uint16) bool {
		a := (float64(raw) + 1) / 65537 // in (0, 1)
		d := p.GrowthFactor(a)
		return d > 0 && d <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: PowerSpectrum is non-negative everywhere.
func TestPropertyPowerSpectrumNonNegative(t *testing.T) {
	p := Default()
	f := func(raw uint32) bool {
		k := math.Exp(float64(raw%2000)/100 - 10) // k in e^-10 .. e^10
		return p.PowerSpectrum(k) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- the caches are exact: a differential oracle ---------------------------
//
// The reference functions below are the bodies SigmaR, MassFunction and
// ExpectedHaloCounts had before the spectrum table and the mass-grid memo:
// the direct integral, re-evaluating the transfer function per k-sample.
// They live here only. Equality is of bits, not within a tolerance: the
// planner's reports are byte-compared.

func refSigmaR2Unnormalized(p Params, r float64) float64 {
	const (
		lnkMin = -9.0
		lnkMax = 9.0
		steps  = 2048
	)
	dlnk := (lnkMax - lnkMin) / steps
	sum := 0.0
	for i := 0; i <= steps; i++ {
		lnk := lnkMin + float64(i)*dlnk
		k := math.Exp(lnk)
		t := p.TransferBBKS(k)
		pk := math.Pow(k, p.NS) * t * t
		w := topHatWindow(k * r)
		integrand := pk * w * w * k * k * k / (2 * math.Pi * math.Pi)
		weight := 1.0
		if i == 0 || i == steps {
			weight = 0.5
		}
		sum += weight * integrand * dlnk
	}
	return sum
}

func refSigmaR(p Params, r float64) float64 {
	norm := p.Sigma8 * p.Sigma8 / refSigmaR2Unnormalized(p, 8)
	return math.Sqrt(refSigmaR2Unnormalized(p, r) * norm)
}

func refMassFunction(p Params, m, z float64) float64 {
	const deltaC = 1.686
	a := ScaleFactor(z)
	d := p.GrowthFactor(a)
	r := p.LagrangianRadius(m)
	sigma := refSigmaR(p, r) * d
	if sigma <= 0 {
		return 0
	}
	eps := 0.01
	rp := p.LagrangianRadius(m * (1 + eps))
	rm := p.LagrangianRadius(m * (1 - eps))
	dlnSigma := (math.Log(refSigmaR(p, rp)) - math.Log(refSigmaR(p, rm))) / (2 * eps)
	nu := deltaC / sigma
	f := math.Sqrt(2/math.Pi) * nu * math.Exp(-nu*nu/2)
	rho := p.MeanMatterDensity()
	return f * (rho / m) * math.Abs(dlnSigma)
}

func refExpectedHaloCounts(p Params, boxSize, mMin, ratio float64, bins int, z float64) []float64 {
	vol := boxSize * boxSize * boxSize
	out := make([]float64, bins)
	const sub = 4
	for i := 0; i < bins; i++ {
		lo := mMin * math.Pow(ratio, float64(i))
		dlnm := math.Log(ratio) / sub
		acc := 0.0
		for s := 0; s < sub; s++ {
			m := lo * math.Exp((float64(s)+0.5)*dlnm)
			acc += refMassFunction(p, m, z) * dlnm
		}
		out[i] = acc * vol
	}
	return out
}

// oracleParams: the default and two that move every field, one of them
// curved and baryon-free.
var oracleParams = []Params{
	Default(),
	{OmegaM: 0.3, OmegaL: 0.7, OmegaB: 0.045, H0: 70, Sigma8: 0.9, NS: 1},
	{OmegaM: 0.25, OmegaL: 0.7, OmegaB: 0, H0: 65, Sigma8: 0.75, NS: 0.95},
}

// logUniform maps raw onto [lo, hi], uniformly in the logarithm.
func logUniform(raw uint32, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, float64(raw)/math.MaxUint32)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCachedSigmaMatchesDirectIntegralBitForBit(t *testing.T) {
	for _, p := range oracleParams {
		sigma := func(raw uint32) bool {
			r := logUniform(raw, 1e-3, 1e3)
			return math.Float64bits(p.SigmaR(r)) == math.Float64bits(refSigmaR(p, r))
		}
		if err := quick.Check(sigma, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%+v: SigmaR: %v", p, err)
		}
		massFunction := func(rawM, rawZ uint32) bool {
			m, z := logUniform(rawM, 1e8, 1e16), 10*float64(rawZ)/math.MaxUint32
			return math.Float64bits(p.MassFunction(m, z)) == math.Float64bits(refMassFunction(p, m, z))
		}
		if err := quick.Check(massFunction, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%+v: MassFunction: %v", p, err)
		}
		counts := func(rawBox, rawM, rawRatio, rawZ uint32, rawBins uint8) bool {
			box, mMin := logUniform(rawBox, 10, 1000), logUniform(rawM, 1e8, 1e14)
			ratio, bins, z := 1+logUniform(rawRatio, 0.01, 9), 1+int(rawBins%3), 10*float64(rawZ)/math.MaxUint32
			want := refExpectedHaloCounts(p, box, mMin, ratio, bins, z)
			// Cold, then from the memo, at a second redshift in between.
			cold := p.ExpectedHaloCounts(box, mMin, ratio, bins, z)
			p.ExpectedHaloCounts(box, mMin, ratio, bins, z+1)
			return sameBits(cold, want) && sameBits(p.ExpectedHaloCounts(box, mMin, ratio, bins, z), want)
		}
		if err := quick.Check(counts, &quick.Config{MaxCount: 5}); err != nil {
			t.Errorf("%+v: ExpectedHaloCounts: %v", p, err)
		}
		if got, want := p.PowerSpectrum(0.2), math.Pow(0.2, p.NS)*p.TransferBBKS(0.2)*p.TransferBBKS(0.2)*
			(p.Sigma8*p.Sigma8/refSigmaR2Unnormalized(p, 8)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%+v: PowerSpectrum(0.2) = %v, direct %v", p, got, want)
		}
	}
}

// The memo is never handed out: a caller may scribble on its counts.
func TestExpectedHaloCountsReturnsFreshSlice(t *testing.T) {
	p := Default()
	first := p.ExpectedHaloCounts(100, 1e11, 10, 4, 0)
	want := append([]float64(nil), first...)
	for i := range first {
		first[i] = -1
	}
	if got := p.ExpectedHaloCounts(100, 1e11, 10, 4, 0); !sameBits(got, want) {
		t.Errorf("after mutating the first result: %v, want %v", got, want)
	}
}

// No mass range is no counts, decided before the memo is consulted.
func TestExpectedHaloCountsDegenerateGrid(t *testing.T) {
	p := Default()
	p.ExpectedHaloCounts(100, 1e11, 10, 4, 0) // the spectrum, if no test built it yet
	spectraBefore, gridsBefore := CacheEntries()
	for _, c := range []struct {
		ratio float64
		bins  int
	}{{10, 0}, {10, -3}, {1, 4}, {0.5, 4}, {0, 4}, {-2, 4}, {math.NaN(), 4}} {
		if got := p.ExpectedHaloCounts(100, 1e11, c.ratio, c.bins, 0); len(got) != 0 {
			t.Errorf("ratio %v bins %d: %v, want no counts", c.ratio, c.bins, got)
		}
	}
	if s, g := CacheEntries(); s != spectraBefore || g != gridsBefore {
		t.Errorf("degenerate grids touched the caches: %d/%d entries, were %d/%d", s, g, spectraBefore, gridsBefore)
	}
}

// A NaN-bearing key never equals itself, so storing it would add an entry
// per call that no later call can find.
func TestNaNKeysAreNotCached(t *testing.T) {
	nan := Default()
	nan.NS = math.NaN()
	ok := Default()
	ok.SigmaR(8)
	spectraBefore, gridsBefore := CacheEntries()
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			nan.SigmaR(8)
		} else {
			nan.PowerSpectrum(0.1)
		}
		if i%100 == 0 {
			nan.ExpectedHaloCounts(100, 1e11, 10, 1, 0)
			ok.ExpectedHaloCounts(100, math.NaN(), 10, 2, 0)
		}
	}
	if s, g := CacheEntries(); s != spectraBefore || g != gridsBefore {
		t.Errorf("NaN keys left entries behind: %d/%d, were %d/%d", s, g, spectraBefore, gridsBefore)
	}
}

var freshParams atomic.Int64 // a Params no earlier test or -count repeat touched

// Sixteen goroutines first-touching a fresh Params race to build its
// spectrum and one mass grid: all must read the same bits, and the caches
// keep one entry each. Run under -race in CI.
func TestConcurrentFirstTouchAgrees(t *testing.T) {
	p := Default()
	p.NS = 0.9 + float64(freshParams.Add(1))*1e-6
	spectraBefore, gridsBefore := CacheEntries()
	const n = 16
	var (
		wg     sync.WaitGroup
		sigmas [n]float64
		counts [n][]float64
		start  = make(chan struct{})
	)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			sigmas[g] = p.SigmaR(2.5)
			counts[g] = p.ExpectedHaloCounts(100, 1e12, 2, 3, 0.5)
		}(g)
	}
	close(start)
	wg.Wait()
	if want := refSigmaR(p, 2.5); math.Float64bits(sigmas[0]) != math.Float64bits(want) {
		t.Errorf("SigmaR = %v, direct integral %v", sigmas[0], want)
	}
	for g := 1; g < n; g++ {
		if math.Float64bits(sigmas[g]) != math.Float64bits(sigmas[0]) || !sameBits(counts[g], counts[0]) {
			t.Errorf("goroutine %d read %v %v, goroutine 0 %v %v", g, sigmas[g], counts[g], sigmas[0], counts[0])
		}
	}
	if s, g := CacheEntries(); s != spectraBefore+1 || g != gridsBefore+1 {
		t.Errorf("caches grew by %d spectra and %d grids, want 1 and 1", s-spectraBefore, g-gridsBefore)
	}
}
