// Package sched models batch scheduling on the paper's machines: job
// queues with node-count accounting, facility queue policies (Titan's
// small-job limit), extra queue-wait models for full-machine allocations,
// and the Bellerophon-derived listener that implements co-scheduling by
// submitting analysis jobs as output files appear (§3.2).
//
// With a fault.Injector attached, jobs can die mid-run (node failure, OOM,
// wall-limit kill) and are resubmitted under a RetryPolicy with
// exponential backoff; node-drain windows withhold capacity; the listener
// loses polls during outage windows. All failure behaviour is strictly
// additive: a nil injector reproduces the failure-free model exactly.
package sched

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/supervise"
)

// Attempt records one execution attempt of a job that was started and
// later died (successful attempts are described by the job's own
// StartTime/EndTime).
type Attempt struct {
	// Start and End bound the attempt; End is when the failure struck.
	Start, End float64
}

// Job is one batch submission. Duration is known up front because the
// workflow engine computes phase times from the platform cost models; the
// scheduler's contribution is *when* the job runs.
type Job struct {
	// Name for reports.
	Name string
	// Nodes requested.
	Nodes int
	// Duration of execution once started, in seconds.
	Duration float64
	// OnStart and OnComplete fire at the job's start and end (either may
	// be nil). OnComplete commonly writes files or submits follow-ups.
	OnStart    func(j *Job)
	OnComplete func(j *Job)
	// OnGiveUp fires when the job fails and the retry policy is exhausted
	// (may be nil). OnComplete never fires for such a job.
	OnGiveUp func(j *Job)

	// Filled by the scheduler.
	SubmitTime, EligibleTime, StartTime, EndTime float64
	Started, Completed                           bool

	// Attempt is the current attempt index (0-based); History records the
	// failed attempts that preceded it. Failed marks a job whose retries
	// are exhausted.
	Attempt int
	History []Attempt
	Failed  bool

	// EffDuration is the attempt's actual run time after gray-failure
	// slowdown factors (equal to Duration in a healthy run).
	EffDuration float64

	// Hedging state (see gray.go): hedge is the live backup attempt racing
	// this job; hedgeOf points a backup at its primary; hedges counts the
	// backups launched for this job; cancelled marks an attempt whose race
	// was lost. timer is the one event the job is waiting on — its
	// completion, its mid-run failure or its backoff resubmission — which
	// fail and cancelJob stop.
	hedge     *Job
	hedgeOf   *Job
	hedges    int
	cancelled bool
	timer     des.Timer

	// span is the current attempt's trace span (nil when the cluster is
	// uninstrumented); see obs.go.
	span *obs.Span
}

// QueueWait returns how long the job waited beyond its submission
// (including modelled facility wait).
func (j *Job) QueueWait() float64 { return j.StartTime - j.SubmitTime }

// RetryPolicy governs resubmission of jobs that die mid-run.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts allowed (first run
	// included). 0 or 1 means no retries.
	MaxAttempts int
	// Backoff is the delay in seconds before the first resubmission;
	// each further retry multiplies it by BackoffFactor (default 2).
	Backoff       float64
	BackoffFactor float64
	// JitterFrac adds up to this fraction of the backoff, drawn from the
	// fault injector's seeded RNG so runs stay reproducible.
	JitterFrac float64
	// MaxDelay caps the exponential backoff in seconds; 0 means the
	// DefaultMaxDelay cap. Without a cap, attempt counts past ~40 overflow
	// the doubling into absurd (eventually +Inf) delays.
	MaxDelay float64
}

// DefaultMaxDelay is the backoff cap applied when RetryPolicy.MaxDelay is
// unset: one simulated hour.
const DefaultMaxDelay = 3600

// DefaultRetry is the policy used by the workflow engine when faults are
// enabled: up to 4 attempts, 30 s initial backoff doubling per retry, 25%
// jitter.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, Backoff: 30, BackoffFactor: 2, JitterFrac: 0.25}
}

// delay computes the backoff before resubmitting attempt (1-based retry
// index: attempt 1 is the first resubmission).
func (p RetryPolicy) delay(inj *fault.Injector, name string, attempt int) float64 {
	d := p.Backoff
	factor := p.BackoffFactor
	if factor <= 0 {
		factor = 2
	}
	max := p.MaxDelay
	if max <= 0 {
		max = DefaultMaxDelay
	}
	// Stop multiplying once past the cap: 2^1000 overflows float64 long
	// before the cap clamps it.
	for i := 1; i < attempt && d < max; i++ {
		d *= factor
	}
	if d > max {
		d = max
	}
	if p.JitterFrac > 0 {
		d += d * p.JitterFrac * inj.RetryJitter(name, attempt)
	}
	return d
}

// Cluster schedules jobs onto one machine.
type Cluster struct {
	// Sim is the shared virtual clock.
	Sim *des.Sim
	// Machine provides node counts and queue policy.
	Machine platform.Machine
	// ExtraQueueWait models facility queue delay beyond resource
	// contention as a function of the job (e.g. "days to a week" for a
	// full-size off-line allocation, §4.2). nil means none.
	ExtraQueueWait func(j *Job) float64
	// Faults optionally injects mid-run job failures; nil means the
	// failure-free model. Retry governs resubmission of failed jobs.
	Faults *fault.Injector
	Retry  RetryPolicy
	// Supervise attaches gray-failure supervision (heartbeats, deadlines,
	// stragglers, hedged re-execution — see gray.go); nil disables it and
	// reproduces the unsupervised event sequence exactly.
	Supervise *supervise.Supervisor
	// Obs records job spans and queue metrics against the DES clock; nil
	// disables instrumentation entirely (see obs.go).
	Obs *obs.Observer

	freeNodes    int
	pending      []*Job
	runningSmall int
	finished     []*Job
	// MaxPendingSeen records the deepest queue observed — the paper's
	// co-scheduling "pile-up in the analysis stack, where many analysis
	// jobs are queued while others run" (§3.2).
	MaxPendingSeen int

	// Failure counters (all zero under a nil injector).
	Attempts        int     // job attempts started
	FailedAttempts  int     // attempts that died mid-run
	Resubmits       int     // failed attempts that were resubmitted
	LostJobs        int     // jobs whose retries were exhausted
	TimeLost        float64 // execution seconds discarded by failed attempts
	LostNodeSeconds float64 // node-seconds held by failed attempts (for charging)

	// Gray-failure counters (all zero without gray faults/supervision).
	StalledAttempts      int     // attempts that hung mid-run holding their nodes
	HedgesLaunched       int     // backup attempts launched for suspect jobs
	HedgeWins            int     // races the backup finished first
	StragglerNodeSeconds float64 // node-seconds reclaimed by cancelling race losers
}

// NewCluster creates a cluster with all nodes free.
func NewCluster(sim *des.Sim, m platform.Machine) (*Cluster, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{Sim: sim, Machine: m, freeNodes: m.Nodes}, nil
}

// FreeNodes reports currently idle nodes (negative while a drain window
// overlaps nodes that running jobs still occupy).
func (c *Cluster) FreeNodes() int { return c.freeNodes }

// Finished returns the completed jobs in completion order.
func (c *Cluster) Finished() []*Job { return c.finished }

// Pending reports queued-but-unstarted jobs.
func (c *Cluster) Pending() int { return len(c.pending) }

// ApplyDrains schedules the injector's node-drain windows: at each window
// start the drained nodes are withheld from new job starts, and at the end
// they return to service. Jobs already running keep their nodes.
func (c *Cluster) ApplyDrains(drains []fault.Drain) {
	for _, d := range drains {
		n := d.Nodes
		if n <= 0 {
			continue
		}
		if n > c.Machine.Nodes {
			n = c.Machine.Nodes
		}
		nodes := n
		c.Sim.At(d.Start, func() { c.freeNodes -= nodes })
		c.Sim.At(d.End, func() {
			c.freeNodes += nodes
			c.trySchedule()
		})
	}
}

// Submit queues a job. The job becomes eligible after the modelled extra
// queue wait, then starts when nodes are free and policy admits it.
// Resubmitting a job (after a failure) resets its per-run state.
func (c *Cluster) Submit(j *Job) error {
	if j.Nodes <= 0 || j.Nodes > c.Machine.Nodes {
		return fmt.Errorf("sched: job %q requests %d nodes on %d-node %s", j.Name, j.Nodes, c.Machine.Nodes, c.Machine.Name)
	}
	if j.Duration < 0 {
		return fmt.Errorf("sched: job %q has negative duration", j.Name)
	}
	// Clear any stale state from a previous attempt. Nothing of a cancelled
	// race loser is left to fire (cancelJob stops its timer), so clearing
	// the flag here is safe.
	j.Started, j.Completed, j.cancelled = false, false, false
	j.StartTime, j.EndTime = 0, 0
	j.SubmitTime = c.Sim.Now()
	wait := 0.0
	if c.ExtraQueueWait != nil {
		wait = c.ExtraQueueWait(j)
	}
	j.EligibleTime = j.SubmitTime + wait
	c.pending = append(c.pending, j)
	if len(c.pending) > c.MaxPendingSeen {
		c.MaxPendingSeen = len(c.pending)
	}
	c.obsSubmit(j)
	c.Sim.At(j.EligibleTime, c.trySchedule)
	return nil
}

// isSmall reports whether the job falls under the facility's small-job
// policy.
func (c *Cluster) isSmall(j *Job) bool {
	return c.Machine.SmallJobLimit > 0 && j.Nodes < c.Machine.SmallJobNodes
}

// trySchedule starts every eligible job that fits, scanning the queue in
// submission order (FIFO with skip — a small job blocked by policy does
// not block a later large job).
func (c *Cluster) trySchedule() {
	now := c.Sim.Now()
	remaining := c.pending[:0]
	for _, j := range c.pending {
		if j.EligibleTime > now || j.Nodes > c.freeNodes || (c.isSmall(j) && c.runningSmall >= c.Machine.SmallJobLimit) {
			remaining = append(remaining, j)
			continue
		}
		c.start(j)
	}
	c.pending = remaining
}

func (c *Cluster) start(j *Job) {
	j.Started = true
	j.StartTime = c.Sim.Now()
	c.freeNodes -= j.Nodes
	if c.isSmall(j) {
		c.runningSmall++
	}
	c.Attempts++
	c.obsStart(j)
	if j.OnStart != nil {
		j.OnStart(j)
	}
	// Gray failures stretch the attempt: a per-attempt slowdown draw
	// compounds with the machine's degraded-window factor at start time.
	eff := j.Duration * c.Faults.JobSlowdown(j.Name, j.Attempt) * c.Faults.DegradeFactorAt(j.StartTime)
	j.EffDuration = eff
	stallFrac, stalled := c.Faults.JobStall(j.Name, j.Attempt)
	if frac, fails := c.Faults.JobAttempt(j.Name, j.Attempt); fails && (!stalled || frac < stallFrac) {
		c.superviseStart(j, eff*frac)
		j.timer = c.Sim.After(eff*frac, func() { c.fail(j) })
		return
	}
	if stalled {
		// The attempt hangs: it holds its nodes, stops beating its heart at
		// the stall point, and never completes. Only supervision (heartbeat
		// watchdog → hedge or declare lost) can recover it.
		c.StalledAttempts++
		c.superviseStart(j, eff*stallFrac)
		return
	}
	c.superviseStart(j, eff)
	j.timer = c.Sim.After(eff, func() { c.complete(j) })
}

func (c *Cluster) complete(j *Job) {
	c.superviseDone(j)
	c.obsEnd(j, "ok")
	j.Completed = true
	j.EndTime = c.Sim.Now()
	c.freeNodes += j.Nodes
	if c.isSmall(j) {
		c.runningSmall--
	}
	if p := j.hedgeOf; p != nil {
		// A backup finished first: cancel the losing primary and project
		// the completion onto it, so downstream code sees exactly one
		// completion of the original job (hedged duplicates never
		// double-count).
		c.hedgeWin(j, p)
		return
	}
	if j.hedge != nil {
		// The primary beat its backup: cancel the loser.
		c.cancelJob(j.hedge, "primary finished first")
		j.hedge = nil
	}
	c.finished = append(c.finished, j)
	if j.OnComplete != nil {
		j.OnComplete(j)
	}
	c.trySchedule()
}

// fail ends a mid-run attempt: nodes free, the attempt is recorded, and
// the job is either resubmitted after backoff or marked permanently
// failed.
func (c *Cluster) fail(j *Job) {
	now := c.Sim.Now()
	j.timer.Stop() // the attempt's completion, when it dies ahead of it
	c.superviseForget(j)
	c.obsEnd(j, "failed")
	c.freeNodes += j.Nodes
	if c.isSmall(j) {
		c.runningSmall--
	}
	// The attempt is over and its nodes are back: clear Started so a later
	// cancel (say, the primary finishing while this backup sits in backoff)
	// cannot free them a second time.
	j.Started = false
	j.History = append(j.History, Attempt{Start: j.StartTime, End: now})
	c.FailedAttempts++
	c.TimeLost += now - j.StartTime
	c.LostNodeSeconds += float64(j.Nodes) * (now - j.StartTime)
	j.Attempt++
	if j.hedge != nil {
		// The primary died while a live backup races on: the backup is the
		// resubmission — don't queue another copy of the work.
		c.Supervise.Note(jobKey(j), "primary-died", "live backup continues")
		c.trySchedule()
		return
	}
	if j.Attempt < c.Retry.MaxAttempts {
		c.Resubmits++
		c.obsCount("sched.resubmits")
		delay := c.Retry.delay(c.Faults, j.Name, j.Attempt)
		j.timer = c.Sim.After(delay, func() { _ = c.Submit(j) })
	} else {
		j.Failed = true
		c.LostJobs++
		c.obsCount("sched.jobs_lost")
		if p := j.hedgeOf; p != nil {
			// A backup died with its retries exhausted: escalate back to
			// the (still-suspect) primary so a stalled primary doesn't
			// deadlock the race.
			p.hedge = nil
			c.escalate(p, supervise.ReasonBackupFailed)
		} else if j.OnGiveUp != nil {
			j.OnGiveUp(j)
		}
	}
	c.trySchedule()
}

// Listener is the co-scheduling daemon: it polls a storage tier for new
// output files and submits an analysis job per file, templated by
// MakeJob. "While the listener and the main job run asynchronously, the
// rate at which the listener checks for new output files should be chosen
// to be much higher than the rate at which the main code generates new
// output files" (§3.2).
type Listener struct {
	// Sim is the virtual clock; FS the watched tier; Cluster the analysis
	// cluster jobs are submitted to.
	Sim     *des.Sim
	FS      *fs.System
	Cluster *Cluster
	// Prefix selects the watched files.
	Prefix string
	// PollInterval is the check cadence in seconds.
	PollInterval float64
	// MakeJob templates an analysis job for a newly seen file ("the
	// listener generates a new batch script and input parameters, based on
	// the timestep of the data and template files"). Returning nil skips
	// the file.
	MakeJob func(path string, f *fs.File) *Job
	// Faults optionally injects listener outage windows; polls inside a
	// window are lost (counted in MissedPolls). With SubmitFailProb set it
	// also injects transient submission refusals (an overloaded batch
	// front-end), which the Breaker turns into backoff.
	Faults *fault.Injector
	// Breaker optionally circuit-breaks the submit path: repeated refusals
	// open it (submissions skipped until the cooldown), a half-open probe
	// rediscovers a recovered front-end. nil means no breaking.
	Breaker *supervise.Breaker
	// Obs records poll/submit counters; nil disables instrumentation.
	Obs *obs.Observer

	// seen holds the paths submitted, skipped by MakeJob or marked seen;
	// pending the watched paths that landed and are none of those yet, kept
	// sorted; cursor is how far into FS's arrival log the listener has read.
	seen        map[string]bool
	pending     []string
	cursor      int
	submitTries map[string]int
	timer       des.Timer // the next poll
	ctr         listenerCounters
	Submitted   int
	Polls       int
	MissedPolls int
	// SubmitFaults counts injected transient submit refusals; BreakerSkips
	// counts submissions not attempted because the breaker was open.
	SubmitFaults int
	BreakerSkips int
}

// Start begins polling. The listener runs until Stop (the backgrounded
// listener "allows the job to end when the main application has
// completed").
func (l *Listener) Start() error {
	if l.PollInterval <= 0 {
		return fmt.Errorf("sched: listener poll interval %g must be positive", l.PollInterval)
	}
	if l.MakeJob == nil {
		return fmt.Errorf("sched: listener needs a MakeJob template")
	}
	l.timer = l.Sim.After(l.PollInterval, l.poll)
	return nil
}

// Stop halts polling: the next poll never runs.
func (l *Listener) Stop() { l.timer.Stop() }

// MarkSeen records a path as already submitted, so polling skips it. The
// campaign resume path uses this to pre-load journaled state: files whose
// analysis completed in a previous incarnation must not be re-analyzed,
// while surviving files *without* a completion record are left unmarked and
// get requeued on the first sweep.
func (l *Listener) MarkSeen(path string) {
	if l.seen == nil {
		l.seen = map[string]bool{}
	}
	l.seen[path] = true
	if i, found := slices.BinarySearch(l.pending, path); found {
		l.pending = slices.Delete(l.pending, i, i+1)
	}
}

// FinalSweep performs one last check, catching files that landed "at the
// very end of the main application's execution time" (§3.2) — the paper's
// additional post-job listener instance. It runs even if the listener was
// inside an outage window (the facility restarts it for the final pass).
func (l *Listener) FinalSweep() { l.sweep() }

// Unseen counts watched files that landed and are not yet submitted for
// analysis (one whose file was deleted since the last sweep is still
// counted: the next sweep drops it).
func (l *Listener) Unseen() int {
	l.ingest()
	return len(l.pending)
}

// ingest reads the tier's arrival log from the cursor and files every
// watched, not yet seen path into pending. A poll that finds nothing new
// costs a bounds check and allocates nothing.
func (l *Listener) ingest() {
	arrived := l.FS.Arrivals(l.cursor)
	l.cursor += len(arrived)
	for _, path := range arrived {
		if !strings.HasPrefix(path, l.Prefix) || l.seen[path] {
			continue
		}
		if i, found := slices.BinarySearch(l.pending, path); !found {
			l.pending = slices.Insert(l.pending, i, path)
		}
	}
}

func (l *Listener) poll() {
	l.Polls++
	if l.Faults.ListenerDown(l.Sim.Now()) {
		l.MissedPolls++
		l.obsCount(&l.ctr.missedPolls, "listener.missed_polls")
	} else {
		l.obsCount(&l.ctr.polls, "listener.polls")
		l.sweep()
	}
	l.timer = l.Sim.After(l.PollInterval, l.poll)
}

// sweep offers every pending path for submission, in lexicographic order:
// submission order numbers the analysis jobs, and landing order differs
// from it whenever a write is re-driven or an outage lets files pile up.
func (l *Listener) sweep() {
	l.ingest()
	kept := l.pending[:0]
	for _, path := range l.pending {
		if !l.offer(path) {
			kept = append(kept, path)
		}
	}
	l.pending = kept
}

// offer tries to submit the analysis job for one pending path and reports
// whether the path leaves the pending set: its job was submitted, MakeJob
// explicitly skipped it, or its file is gone (a truncated write deleted
// before its re-drive landed; the re-driven landing brings the path back
// through the arrival log, and the breaker is not consulted for a file
// that is not there). An open breaker, a refusal or a Submit failure keep
// the path pending, so the next poll retries it instead of dropping the
// analysis silently.
func (l *Listener) offer(path string) bool {
	f, err := l.FS.Stat(path)
	if err != nil {
		return true
	}
	if !l.Breaker.Allow() {
		l.BreakerSkips++
		l.obsCount(&l.ctr.breakerSkips, "listener.breaker_skips")
		return false // the front-end is sick; back off instead of hot-looping
	}
	if l.submitTries == nil {
		l.submitTries = map[string]int{}
	}
	try := l.submitTries[path]
	l.submitTries[path] = try + 1
	if l.Faults.SubmitFail(path, try) {
		l.SubmitFaults++
		l.obsCount(&l.ctr.submitFaults, "listener.submit_faults")
		l.Breaker.Failure()
		return false // transient refusal
	}
	if l.seen == nil {
		l.seen = map[string]bool{}
	}
	job := l.MakeJob(path, f)
	if job == nil {
		l.seen[path] = true // explicit skip
		return true
	}
	if err := l.Cluster.Submit(job); err != nil {
		l.Breaker.Failure()
		return false
	}
	l.Breaker.Success()
	l.seen[path] = true
	l.Submitted++
	l.obsCount(&l.ctr.submitted, "listener.submitted")
	return true
}
