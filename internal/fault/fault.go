// Package fault is a seeded, deterministic fault injector for the
// discrete-event workflow models. Real co-scheduling deployments are
// dominated by failures the paper's idealized comparison never sees: batch
// jobs die mid-run, Lustre writes fail or land silently truncated, the
// Bellerophon-style listener drops polls during outages, and committed
// files rot at rest. A Profile declares a rate or windows for each
// fault class; an Injector answers per-event "does this fail?" queries.
// Where a fault also draws a magnitude (a failure point, a surviving byte
// fraction, a slowdown factor, a bit-rot delay), the range is a package
// constant: no workflow has needed another.
//
// Determinism: every draw is keyed by a stable identity (job name +
// attempt, file path + write sequence, timestep) hashed together with the
// profile seed into its own substream. The same seed therefore produces
// the same faults regardless of call order or goroutine interleaving — a
// property the repeatability tests assert by requiring byte-identical
// reports across runs.
//
// All Injector methods are nil-receiver safe and report "no fault", so
// callers thread a possibly-nil *Injector without guarding every site; a
// nil injector (or a zero Profile) reproduces the failure-free world
// exactly.
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Window is a half-open interval [Start, End) of virtual seconds.
type Window struct {
	Start, End float64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool { return t >= w.Start && t < w.End }

// Crash kills the whole campaign process — the recovery problem PR 1's
// per-operation faults cannot express: a batch job hits its walltime limit
// or a node dies, and everything in flight (the engine, its listener, a
// half-written product) vanishes at once. At most one trigger is set, and
// an entry with neither runs to completion:
//
//   - AtTime kills the run when the virtual clock reaches that second;
//     events scheduled later never execute.
//   - AtStep kills the run at the instant step AtStep's Level 2 commit
//     begins, leaving a torn file at the final path (the worst case a
//     non-atomic writer can produce) with no journal record.
type Crash struct {
	AtTime float64
	AtStep int
}

// Armed reports whether the crash has a trigger.
func (c Crash) Armed() bool { return c.AtTime > 0 || c.AtStep > 0 }

// Drain marks a window during which Nodes nodes of a cluster are held out
// of service (drained for maintenance or down after a hardware fault).
// Jobs already running on drained nodes keep running — the capacity is
// withheld from new starts, as a real scheduler reservation would.
type Drain struct {
	Window
	Nodes int
}

// Profile declares the fault classes and their rates. The zero value
// injects nothing; every workflow run under a zero Profile is identical to
// a run with no injector at all.
type Profile struct {
	// Seed keys every random draw. Two runs with equal Profiles produce
	// identical fault sequences.
	Seed int64

	// JobFailureProb is the probability that one job attempt dies mid-run.
	// The failure point is drawn uniformly from [0.05, 0.95] of the
	// attempt's duration.
	JobFailureProb float64

	// WriteFailProb is the probability a file-system write errors outright
	// (nothing lands). WriteTruncateProb is the probability it lands
	// silently truncated to a fraction of its bytes drawn uniformly from
	// [0.1, 0.9]; only a reader that verifies the expected size notices.
	WriteFailProb     float64
	WriteTruncateProb float64

	// ListenerOutages are windows during which the co-scheduling listener
	// is down: polls that fall inside are lost (files are only picked up
	// by a later poll or the final sweep).
	ListenerOutages []Window

	// NodeDrains withhold cluster capacity during windows.
	NodeDrains []Drain

	// Crashes schedules one process death per campaign generation: the
	// g-th execution of a resumable campaign (0-based, counted across
	// resumes) dies at Crashes[g]; generations past the end of the list
	// run to completion. A crash/resume/crash/resume torn-run schedule is
	// simply a list of two crashes.
	Crashes []Crash

	// --- gray failures: nothing dies, everything limps ---

	// JobSlowdownProb is the probability one job attempt runs slow (a sick
	// node, contended I/O) by a factor drawn uniformly from [1.5, 4].
	JobSlowdownProb float64

	// JobStallProb is the probability one job attempt hangs mid-run — it
	// holds its nodes, emits no further progress, and never completes. The
	// stall point is drawn uniformly from [0.05, 0.95] of the attempt's
	// duration. Only deadline or heartbeat supervision can recover a
	// stalled attempt.
	JobStallProb float64

	// InSituSlowdownProb is the probability one timestep's in-situ analysis
	// runs slow (halo-population pathologies, §4.2's subhalo imbalance) by
	// a factor drawn uniformly from [1.5, 4]. This is the gray failure the
	// step-budget escape hatch (core.Scenario.StepBudget) answers: blow the
	// budget and the work spills off-line.
	InSituSlowdownProb float64

	// SubmitFailProb is the probability one listener submission attempt is
	// refused transiently (batch front-end overloaded); the listener's
	// circuit breaker turns repeated refusals into backoff.
	SubmitFailProb float64

	// TransitDelayProb is the probability one in-transit delivery lags.
	// The campaign model never draws it: it only makes a profile Enabled.
	TransitDelayProb float64

	// --- silent data corruption: nothing fails, the bytes lie ---

	// BitRotProb is the probability one committed product file suffers a
	// single flipped bit at rest, landing a delay drawn uniformly from
	// [BitRotDelaySecMin, BitRotDelaySecMax] seconds after the commit
	// (default [5, 900]). The flip preserves the file's length, so size
	// checks pass and only checksum verification notices.
	BitRotProb                           float64
	BitRotDelaySecMin, BitRotDelaySecMax float64
}

// Enabled reports whether the profile can inject any fault at all.
func (p Profile) Enabled() bool {
	return p.JobFailureProb > 0 || p.WriteFailProb > 0 || p.WriteTruncateProb > 0 ||
		len(p.ListenerOutages) > 0 || len(p.NodeDrains) > 0 ||
		p.TransitDelayProb > 0 || len(p.Crashes) > 0 || p.GrayEnabled() || p.CorruptionEnabled()
}

// CorruptionEnabled reports whether the profile can inject any silent
// data corruption — the class no failure machinery sees; only end-to-end
// checksum verification (and the scrubber built on it) catches these.
func (p Profile) CorruptionEnabled() bool {
	return p.BitRotProb > 0
}

// GrayEnabled reports whether the profile can inject any gray failure —
// the classes that stall or slow work without killing it, which only
// deadline/heartbeat supervision can recover. Transit lag is not one: the
// campaign model never draws it.
func (p Profile) GrayEnabled() bool {
	return p.JobSlowdownProb > 0 || p.JobStallProb > 0 || p.InSituSlowdownProb > 0 ||
		p.SubmitFailProb > 0
}

// Validate rejects malformed profiles with descriptive errors instead of
// letting them silently clamp or misbehave: probabilities outside [0, 1],
// inverted or empty windows, negative drain sizes, a crash with a negative
// trigger or with both triggers set, and a negative or inverted bit-rot
// delay range.
func (p Profile) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"JobFailureProb", p.JobFailureProb},
		{"WriteFailProb", p.WriteFailProb},
		{"WriteTruncateProb", p.WriteTruncateProb},
		{"JobSlowdownProb", p.JobSlowdownProb},
		{"JobStallProb", p.JobStallProb},
		{"InSituSlowdownProb", p.InSituSlowdownProb},
		{"SubmitFailProb", p.SubmitFailProb},
		{"TransitDelayProb", p.TransitDelayProb},
		{"BitRotProb", p.BitRotProb},
	}
	for _, pr := range probs {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s = %g is not a probability (want [0, 1])", pr.name, pr.v)
		}
	}
	for i, w := range p.ListenerOutages {
		if w.End <= w.Start {
			return fmt.Errorf("fault: ListenerOutages[%d] = [%g, %g) is inverted or empty", i, w.Start, w.End)
		}
	}
	for i, d := range p.NodeDrains {
		if d.End <= d.Start {
			return fmt.Errorf("fault: NodeDrains[%d] window [%g, %g) is inverted or empty", i, d.Start, d.End)
		}
		if d.Nodes < 0 {
			return fmt.Errorf("fault: NodeDrains[%d] drains %d nodes (negative)", i, d.Nodes)
		}
	}
	for i, c := range p.Crashes {
		if c.AtTime < 0 || c.AtStep < 0 || (c.AtTime > 0 && c.AtStep > 0) {
			return fmt.Errorf("fault: Crashes[%d] = {AtTime: %g, AtStep: %d}: want at most one non-negative trigger", i, c.AtTime, c.AtStep)
		}
	}
	if p.BitRotDelaySecMin != 0 || p.BitRotDelaySecMax != 0 {
		if p.BitRotDelaySecMin < 0 || p.BitRotDelaySecMax < p.BitRotDelaySecMin {
			return fmt.Errorf("fault: BitRotDelaySecMin/Max = [%g, %g] negative or inverted",
				p.BitRotDelaySecMin, p.BitRotDelaySecMax)
		}
	}
	return nil
}

// WriteOutcome classifies one file-system write attempt.
type WriteOutcome int

const (
	// WriteOK lands the file intact.
	WriteOK WriteOutcome = iota
	// WriteFail errors the write; no file lands.
	WriteFail
	// WriteTruncate lands the file silently short.
	WriteTruncate
)

// Injector answers fault queries for one Profile. The zero-value pointer
// (nil) injects nothing.
type Injector struct {
	p Profile
}

// New builds an injector for the profile, rejecting malformed profiles
// (see Profile.Validate). A zero profile yields a valid injector that
// never injects.
func New(p Profile) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{p: p}, nil
}

// MustNew is New for profiles known valid (tests, literals); it panics on
// a validation error.
func MustNew(p Profile) *Injector {
	in, err := New(p)
	if err != nil {
		panic(err)
	}
	return in
}

// rng derives an independent substream from the seed and a stable key, so
// draws are order- and interleaving-independent.
func (in *Injector) rng(kind, key string, n int) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	s := uint64(in.p.Seed)
	for i := range b {
		b[i] = byte(s >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(key))
	for i := range b {
		b[i] = byte(uint64(n) >> (8 * i))
	}
	h.Write(b[:])
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// The magnitude ranges of the fault draws. They are typed so that each
// draw still subtracts hi - lo in float64: untyped constants would fold
// 0.95 - 0.05 to exactly 0.9 instead of 0.8999999999999999, and move every
// drawn failure and stall point.
const (
	// failFracMin and failFracMax bound where in its duration an attempt
	// dies (JobAttempt) or hangs (JobStall).
	failFracMin, failFracMax float64 = 0.05, 0.95
	// truncFracMin and truncFracMax bound the bytes a truncated write keeps.
	truncFracMin, truncFracMax float64 = 0.1, 0.9
	// slowMin and slowMax bound job and in-situ slowdown factors.
	slowMin, slowMax float64 = 1.5, 4
)

// JobAttempt decides whether the named job's attempt (0-based) dies
// mid-run, and if so at which fraction of its duration.
func (in *Injector) JobAttempt(name string, attempt int) (failFrac float64, fail bool) {
	if in == nil || in.p.JobFailureProb <= 0 {
		return 0, false
	}
	r := in.rng("job", name, attempt)
	if r.Float64() >= in.p.JobFailureProb {
		return 0, false
	}
	return failFracMin + r.Float64()*(failFracMax-failFracMin), true
}

// RetryJitter returns a deterministic jitter factor in [0, 1) for the
// named job's retry backoff.
func (in *Injector) RetryJitter(name string, attempt int) float64 {
	if in == nil {
		return 0
	}
	return in.rng("retry", name, attempt).Float64()
}

// Write decides the outcome of the attempt-th write (0-based) of the given
// path, returning the surviving byte fraction for truncations.
func (in *Injector) Write(path string, attempt int) (WriteOutcome, float64) {
	if in == nil || (in.p.WriteFailProb <= 0 && in.p.WriteTruncateProb <= 0) {
		return WriteOK, 1
	}
	r := in.rng("write", path, attempt)
	u := r.Float64()
	switch {
	case u < in.p.WriteFailProb:
		return WriteFail, 0
	case u < in.p.WriteFailProb+in.p.WriteTruncateProb:
		return WriteTruncate, truncFracMin + r.Float64()*(truncFracMax-truncFracMin)
	default:
		return WriteOK, 1
	}
}

// ListenerDown reports whether the listener is inside an outage window at
// virtual time t.
func (in *Injector) ListenerDown(t float64) bool {
	if in == nil {
		return false
	}
	for _, w := range in.p.ListenerOutages {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// CrashFor returns the process-crash scheduled for the given campaign
// generation (0-based), if any. Crashes are positional, not random: the
// torn-run property tests need exact, repeatable kill points.
func (in *Injector) CrashFor(generation int) (Crash, bool) {
	if in == nil || generation < 0 || generation >= len(in.p.Crashes) {
		return Crash{}, false
	}
	c := in.p.Crashes[generation]
	return c, c.Armed()
}

// NodeDrains returns the profile's drain windows (nil for a nil injector).
func (in *Injector) NodeDrains() []Drain {
	if in == nil {
		return nil
	}
	return in.p.NodeDrains
}

// JobSlowdown returns the slowdown factor (>= 1) for the named job's
// attempt; 1 means the attempt runs at nominal speed.
func (in *Injector) JobSlowdown(name string, attempt int) float64 {
	if in == nil || in.p.JobSlowdownProb <= 0 {
		return 1
	}
	r := in.rng("slow", name, attempt)
	if r.Float64() >= in.p.JobSlowdownProb {
		return 1
	}
	return slowMin + r.Float64()*(slowMax-slowMin)
}

// JobStall decides whether the named job's attempt hangs mid-run, and if
// so at which fraction of its (slowed) duration progress stops.
func (in *Injector) JobStall(name string, attempt int) (stallFrac float64, stall bool) {
	if in == nil || in.p.JobStallProb <= 0 {
		return 0, false
	}
	r := in.rng("stall", name, attempt)
	if r.Float64() >= in.p.JobStallProb {
		return 0, false
	}
	return failFracMin + r.Float64()*(failFracMax-failFracMin), true
}

// StepSlowdown returns the in-situ analysis slowdown factor (>= 1) for the
// given timestep.
func (in *Injector) StepSlowdown(step int) float64 {
	if in == nil || in.p.InSituSlowdownProb <= 0 {
		return 1
	}
	r := in.rng("insitu", "step", step)
	if r.Float64() >= in.p.InSituSlowdownProb {
		return 1
	}
	return slowMin + r.Float64()*(slowMax-slowMin)
}

// SubmitFail decides whether the attempt-th submission (0-based) of an
// analysis job for the given path is refused transiently.
func (in *Injector) SubmitFail(path string, attempt int) bool {
	if in == nil || in.p.SubmitFailProb <= 0 {
		return false
	}
	return in.rng("submit", path, attempt).Float64() < in.p.SubmitFailProb
}

// BitRot decides whether the epoch-th committed incarnation of the
// product at path rots at rest (epoch distinguishes re-commits of the
// same path across campaign generations), returning the delay in seconds
// after the commit at which the flip lands and the flipped bit's position
// as a fraction of the file's bits.
func (in *Injector) BitRot(path string, epoch int) (delaySec, bitFrac float64, rot bool) {
	if in == nil || in.p.BitRotProb <= 0 {
		return 0, 0, false
	}
	r := in.rng("rot", path, epoch)
	if r.Float64() >= in.p.BitRotProb {
		return 0, 0, false
	}
	lo, hi := in.p.BitRotDelaySecMin, in.p.BitRotDelaySecMax
	if lo == 0 && hi == 0 {
		lo, hi = 5, 900
	}
	return lo + r.Float64()*(hi-lo), r.Float64(), true
}
