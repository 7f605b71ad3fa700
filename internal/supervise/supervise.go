// Package supervise detects gray failures — stalls, slowdowns, stragglers
// — that fail-stop recovery (internal/fault + retry) cannot see. A stalled
// analysis job holds its nodes and never completes; a co-scheduled
// pipeline is throttled by its slowest co-resident component (Do et al.,
// 2022). The supervisor watches jobs through three independent detectors:
//
//   - heartbeats: a job reports its last progress time through a pure
//     function; a watchdog polls it once per miss window, NOT once per
//     beat (what supervision adds to a fault-free campaign is measured
//     by `go run ./bench`, per-layer metrics supervise.overhead_ms and
//     supervise.overhead_allocs, recorded in bench/baseline.json).
//   - deadlines: an absolute limit of DeadlineFactor x expected duration
//     plus slack; blowing it declares the job suspect even if it still
//     beats its heart.
//   - stragglers: a relative test against the population — a job whose
//     running/expected ratio exceeds StragglerFactor x the 95th-percentile
//     ratio of completed peers is suspect long before its deadline.
//
// On suspicion the supervisor invokes the job's onSuspect callback exactly
// once; the scheduling layer decides the response (hedge a backup attempt,
// cancel, degrade the step off-line). Every decision is appended to a
// deterministic log: two runs with the same seed produce byte-identical
// logs, the property the resilience tests pin.
//
// All Supervisor methods are nil-receiver safe: a nil supervisor watches
// nothing and costs nothing, so unsupervised runs stay on the exact event
// sequence of the original model.
package supervise

import (
	"fmt"
	"slices"

	"repro/internal/des"
	"repro/internal/obs"
)

// Policy tunes the three gray-failure detectors and the hedging budget.
type Policy struct {
	// HeartbeatInterval is the virtual-time spacing of job progress beats;
	// MissThreshold consecutive missed beats declare the job suspect. The
	// watchdog polls once per miss window (Interval x Threshold), not per
	// beat.
	HeartbeatInterval float64
	MissThreshold     int
	// A job is suspect when it runs past DeadlineFactor x its expected
	// duration plus DeadlineSlack seconds.
	DeadlineFactor float64
	DeadlineSlack  float64
	// A job is a straggler when its running/expected ratio exceeds
	// StragglerFactor x max(1, the StragglerPercentile ratio of completed
	// peers), once at least StragglerMinDone peers have completed.
	StragglerFactor     float64
	StragglerPercentile float64
	StragglerMinDone    int
	// MaxHedges caps backup attempts per job; past it a suspect job is
	// declared lost instead of hedged again.
	MaxHedges int
}

// DefaultPolicy returns the supervision tuning used by the resilience
// studies: 30 s beats, 3 missed beats to suspect, a deadline of 4x
// expected + 2 min, stragglers at 3x the population's p95 ratio after 5
// completions, and at most 2 backup attempts per job.
func DefaultPolicy() Policy {
	return Policy{
		HeartbeatInterval:   30,
		MissThreshold:       3,
		DeadlineFactor:      4,
		DeadlineSlack:       120,
		StragglerFactor:     3,
		StragglerPercentile: 0.95,
		StragglerMinDone:    5,
		MaxHedges:           2,
	}
}

// missWindow is the virtual time without a beat that declares a suspect.
func (p Policy) missWindow() float64 {
	iv := p.HeartbeatInterval
	if iv <= 0 {
		iv = 30
	}
	n := p.MissThreshold
	if n <= 0 {
		n = 3
	}
	return iv * float64(n)
}

// Reason classifies why a watched task was declared suspect.
type Reason string

const (
	// ReasonHeartbeatMissed: no progress beat for MissThreshold intervals
	// — the signature of a stalled job.
	ReasonHeartbeatMissed Reason = "heartbeat-missed"
	// ReasonDeadlineExceeded: running past the absolute per-job deadline.
	ReasonDeadlineExceeded Reason = "deadline-exceeded"
	// ReasonStraggler: running far behind the completed population.
	ReasonStraggler Reason = "straggler"
	// ReasonBackupFailed: a hedged backup attempt died with its retries
	// exhausted, escalating back to the primary.
	ReasonBackupFailed Reason = "backup-failed"
)

// Decision is one entry in the supervisor's deterministic decision log.
type Decision struct {
	// T is the virtual time of the decision.
	T float64
	// Task names the watched task (job name + attempt).
	Task string
	// Event is the decision kind: "watch", "done", "suspect", or a
	// caller-recorded event such as "hedge", "hedge-win", "degrade",
	// "rescue", "lost".
	Event string
	// Note carries the reason or detail.
	Note string
}

// String renders one decision log line.
func (d Decision) String() string {
	return fmt.Sprintf("t=%-9.1f %-10s %-22s %s", d.T, d.Event, d.Task, d.Note)
}

// watch is the supervisor's per-task state.
type watch struct {
	name      string
	expected  float64
	started   float64
	heartbeat func() float64
	onSuspect func(Reason)
	// The watch owns its two pending events and stops them when it is
	// resolved, replaced or declared suspect: neither can fire afterwards.
	deadline, watchdog des.Timer
}

func (w *watch) disarm() {
	w.deadline.Stop()
	w.watchdog.Stop()
}

// Supervisor watches tasks on one virtual clock. The zero value is not
// usable; build one with New. A nil *Supervisor is valid and inert.
type Supervisor struct {
	sim    *des.Sim
	policy Policy

	tasks      map[string]*watch
	doneRatios []float64 // running/expected ratios of completed tasks, ascending
	decisions  []Decision

	// Suspects counts suspicion events; Watched counts Watch calls.
	Suspects int
	Watched  int

	// Obs mirrors every decision-log event into a per-event counter
	// (supervise.<event>); nil disables instrumentation.
	Obs *obs.Observer
}

// New builds a supervisor on the simulation clock. Zero policy fields fall
// back to DefaultPolicy values where a zero would disable the detector.
func New(sim *des.Sim, p Policy) *Supervisor {
	def := DefaultPolicy()
	if p.HeartbeatInterval <= 0 {
		p.HeartbeatInterval = def.HeartbeatInterval
	}
	if p.MissThreshold <= 0 {
		p.MissThreshold = def.MissThreshold
	}
	if p.DeadlineFactor <= 0 {
		p.DeadlineFactor = def.DeadlineFactor
	}
	if p.StragglerFactor <= 0 {
		p.StragglerFactor = def.StragglerFactor
	}
	if p.StragglerPercentile <= 0 || p.StragglerPercentile > 1 {
		p.StragglerPercentile = def.StragglerPercentile
	}
	if p.StragglerMinDone <= 0 {
		p.StragglerMinDone = def.StragglerMinDone
	}
	return &Supervisor{sim: sim, policy: p, tasks: make(map[string]*watch)}
}

// Policy returns the supervisor's resolved policy (zero when nil).
func (sv *Supervisor) Policy() Policy {
	if sv == nil {
		return Policy{}
	}
	return sv.policy
}

// Watch starts supervising a task. expected is its nominal duration;
// heartbeat is a pure function returning the virtual time of the task's
// last progress beat (the watchdog polls it — the task never schedules
// per-beat events); onSuspect fires at most once, on the first detector
// that trips. Re-watching a live name replaces the old watch.
func (sv *Supervisor) Watch(name string, expected float64, heartbeat func() float64, onSuspect func(Reason)) {
	if sv == nil {
		return
	}
	if old, ok := sv.tasks[name]; ok {
		old.disarm()
	}
	w := &watch{
		name:      name,
		expected:  expected,
		started:   sv.sim.Now(),
		heartbeat: heartbeat,
		onSuspect: onSuspect,
	}
	sv.tasks[name] = w
	sv.Watched++
	sv.record("watch", name, fmt.Sprintf("expected=%.0fs", expected))

	// Absolute deadline: one event, armed at watch time.
	deadline := w.started + sv.policy.DeadlineFactor*expected + sv.policy.DeadlineSlack
	w.deadline = sv.sim.At(deadline, func() {
		sv.suspect(w, ReasonDeadlineExceeded,
			fmt.Sprintf("ran %.0fs > %.0fs deadline", sv.sim.Now()-w.started, deadline-w.started))
	})

	// Watchdog: poll the heartbeat once per miss window.
	w.watchdog = sv.sim.At(w.started+sv.policy.missWindow(), func() { sv.check(w) })
}

// check is one watchdog poll: verify the heartbeat is fresh, run the
// straggler test, and reschedule for the next possible miss time.
func (sv *Supervisor) check(w *watch) {
	now := sv.sim.Now()
	window := sv.policy.missWindow()
	last := w.started
	if w.heartbeat != nil {
		last = w.heartbeat()
	}
	// Next possible miss: one window after the freshest beat. The test and
	// the re-arm below are the same expression, so a poll that does not
	// trip is always re-armed strictly in the future.
	next := last + window
	if now >= next {
		sv.suspect(w, ReasonHeartbeatMissed,
			fmt.Sprintf("no beat for %.0fs (window %.0fs)", now-last, window))
		return
	}
	if reason, note, ok := sv.stragglerTest(w, now); ok {
		sv.suspect(w, reason, note)
		return
	}
	w.watchdog = sv.sim.At(next, func() { sv.check(w) })
}

// stragglerTest compares the task's running/expected ratio to the
// completed population.
func (sv *Supervisor) stragglerTest(w *watch, now float64) (Reason, string, bool) {
	if len(sv.doneRatios) < sv.policy.StragglerMinDone || w.expected <= 0 {
		return "", "", false
	}
	ratio := (now - w.started) / w.expected
	p95 := percentile(sv.doneRatios, sv.policy.StragglerPercentile)
	if p95 < 1 {
		p95 = 1
	}
	if ratio > sv.policy.StragglerFactor*p95 {
		return ReasonStraggler,
			fmt.Sprintf("ratio %.2f > %.0fx p%.0f=%.2f of %d done",
				ratio, sv.policy.StragglerFactor, sv.policy.StragglerPercentile*100, p95, len(sv.doneRatios)),
			true
	}
	return "", "", false
}

// suspect fires the task's onSuspect callback exactly once and logs it.
func (sv *Supervisor) suspect(w *watch, r Reason, note string) {
	w.disarm()
	sv.Suspects++
	sv.record("suspect", w.name, string(r)+": "+note)
	if w.onSuspect != nil {
		w.onSuspect(r)
	}
}

// Done resolves a watched task as completed, feeding its running/expected
// ratio into the straggler population.
func (sv *Supervisor) Done(name string) {
	if sv == nil {
		return
	}
	w, ok := sv.tasks[name]
	if !ok {
		return
	}
	w.disarm()
	if w.expected > 0 {
		ratio := (sv.sim.Now() - w.started) / w.expected
		i, _ := slices.BinarySearch(sv.doneRatios, ratio)
		sv.doneRatios = slices.Insert(sv.doneRatios, i, ratio)
	}
	delete(sv.tasks, name)
	sv.record("done", name, fmt.Sprintf("after %.0fs", sv.sim.Now()-w.started))
}

// Forget drops a watch without recording a completion ratio (the task was
// cancelled or superseded, not finished).
func (sv *Supervisor) Forget(name string) {
	if sv == nil {
		return
	}
	if w, ok := sv.tasks[name]; ok {
		w.disarm()
		delete(sv.tasks, name)
	}
}

// Note appends a caller decision (hedge launch, degrade, rescue, ...) to
// the log at the current virtual time.
func (sv *Supervisor) Note(task, event, note string) {
	if sv == nil {
		return
	}
	sv.record(event, task, note)
}

func (sv *Supervisor) record(event, task, note string) {
	sv.decisions = append(sv.decisions, Decision{T: sv.sim.Now(), Task: task, Event: event, Note: note})
	// record is the one choke point every supervision decision flows
	// through, so the metric mirror lives here and nowhere else.
	if sv.Obs != nil {
		sv.Obs.Metrics().Counter("supervise." + event).Inc()
	}
}

// Decisions returns the decision log in event order — deterministic for a
// fixed seed, the reproducibility property the resilience tests pin.
func (sv *Supervisor) Decisions() []Decision {
	if sv == nil {
		return nil
	}
	return sv.decisions
}

// Watching reports the number of currently watched tasks.
func (sv *Supervisor) Watching() int {
	if sv == nil {
		return 0
	}
	return len(sv.tasks)
}

// percentile returns the p-th percentile (nearest rank) of the ascending,
// non-empty xs.
func percentile(xs []float64, p float64) float64 {
	i := int(p*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}
