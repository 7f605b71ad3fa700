package core

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/supervise"
)

// redriveLimit bounds write re-drives so a pathological profile (100%
// write failure) cannot loop forever; each re-drive draws an independent
// fault outcome, so under realistic rates the file always lands.
const redriveLimit = 8

// writeRedriveDelay is the virtual-seconds pause before a failed or
// truncated Level 2 write is re-driven.
const writeRedriveDelay = 5.0

// drainSweeps bounds the post-run listener drain: a pathological profile
// refusing every submission cannot hang the run, and under realistic
// refusal rates every analysis is submitted well before the bound.
const drainSweeps = 40

// l2Path is the modelled storage path of one step's Level 2 file (also the
// relative on-disk product path under a persisted campaign's directory).
func l2Path(step int) string { return fmt.Sprintf("l2/step%03d.gio", step) }

// engine is the paper's one combined-workflow mechanism (§3.2) on a
// discrete-event clock: a simulation job emits one Level 2 file per step,
// a listener submits one analysis job per file, and one extra drain after
// the job catches the last output. Run's three combined variants, Campaign
// and ResumableCampaign all drive it and differ only in data: newEngine's
// arguments, the two callbacks and run's step range. The engine owns the
// clock and the modelled storage; ResumableCampaign schedules its bit rot
// and scrub jobs on them directly.
type engine struct {
	s   *Scenario
	ph  phases        // l2Write and l2Read zeroed in transit (staged through memory)
	obs *obs.Observer // nil: uninstrumented (Run lays phase spans instead)

	sim                     des.Sim
	storage                 *fs.System
	simCluster, postCluster *sched.Cluster
	sup                     *supervise.Supervisor
	inj                     *fault.Injector
	// listener is nil for the simple and in-transit variants: one post job
	// covering every step is queued after the simulation instead.
	listener *sched.Listener
	camp     *obs.Span
	simJob   string  // simulation job name (fault draws are keyed by it)
	postNom  float64 // nominal analysis job duration

	// onLanded fires when a step's Level 2 write verifies intact, onPostDone
	// when its analysis completes: each at most once per step (hedged
	// backups re-emit, rescued jobs re-complete) and never after abort.
	onLanded, onPostDone func(step int)
	landed, postsDone    []bool
	err                  error // set by abort

	first, last int // emitted step range
	writing     int // Level 2 writes emitted and neither landed nor given up
	res         Resilience
	jobStarts   []float64 // analysis job start times
	simEnd      float64   // when the simulation job completed or was given up
	simDone     bool
}

// newEngine sets up storage, both clusters under one supervisor, the step
// planner and, for the co-scheduled kind, the listener. simJob names the
// simulation job, queueWait is the facility wait of every post-cluster job,
// and o instruments the run (nil: not at all).
func newEngine(s *Scenario, ph *phases, kind Kind, simJob string, queueWait float64, o *obs.Observer) (*engine, error) {
	e := &engine{s: s, ph: *ph, obs: o, simJob: simJob, inj: s.injector()}
	// Spans and metrics are stamped from the engine's clock, so a seed's
	// trace is byte-identical across runs (the determinism contract in obs).
	o.SetClock(e.sim.Now)
	e.camp = o.Begin("campaign", s.Name)
	e.storage = fs.New(&e.sim, "lustre")
	if kind == CombinedInTransit {
		// In-transit Level 2 never touches the file system: no write or
		// read time, and storage faults do not apply.
		e.ph.l2Write, e.ph.l2Read = 0, 0
	} else {
		e.storage.SetFaults(e.inj)
	}
	// One supervisor watches both clusters, so hedges and loss declarations
	// land in a single ordered decision log.
	e.sup = s.supervision(&e.sim)
	if e.sup != nil {
		e.sup.Obs = o
	}
	var err error
	if e.simCluster, err = s.cluster(&e.sim, s.Machine, e.inj, e.sup); err != nil {
		return nil, err
	}
	// Post jobs run on the post machine (the same machine in the Table 4
	// set-up, Moonlight for Q Continuum).
	if e.postCluster, err = s.cluster(&e.sim, s.PostMachine, e.inj, e.sup); err != nil {
		return nil, err
	}
	e.simCluster.Obs, e.postCluster.Obs = o, o
	e.postCluster.ExtraQueueWait = func(*sched.Job) float64 { return queueWait }
	e.postNom = e.ph.l2Read + e.ph.l2Redist + e.ph.postCenter + e.ph.l3Write
	if kind != CombinedCoScheduled {
		return e, nil
	}
	seq := 0
	e.listener = &sched.Listener{
		Sim: &e.sim, FS: e.storage, Cluster: e.postCluster,
		Prefix:       "l2/",
		PollInterval: s.ListenerPoll,
		Faults:       e.inj,
		Obs:          o,
		MakeJob: func(_ string, f *fs.File) *sched.Job {
			// Numbered in submission order, sized for the file's step (a
			// degraded step's job carries the spilled center work).
			seq++
			step := f.Payload.(int)
			return e.postJob(seq, step, e.postDur(step))
		},
	}
	if e.sup != nil {
		e.listener.Breaker = supervise.NewBreaker(e.sim.Now)
	}
	return e, e.listener.Start()
}

// postJob templates an analysis job; step 0 means it covers no single step.
func (e *engine) postJob(seq, step int, dur float64) *sched.Job {
	j := &sched.Job{Name: fmt.Sprintf("post-%03d", seq), Nodes: e.s.PostNodes, Duration: dur}
	j.OnStart = func(j *sched.Job) { e.jobStarts = append(e.jobStarts, j.StartTime) }
	if e.onPostDone != nil && step > 0 {
		j.OnComplete = func(*sched.Job) {
			if e.err == nil && !e.postsDone[step] {
				e.postsDone[step] = true
				e.onPostDone(step)
			}
		}
	}
	if e.s.rescues() {
		// One-deep rescue: if supervision declares the job lost, a
		// replacement carrying the same callbacks (and no rescue of its
		// own) is submitted.
		j.OnGiveUp = func(*sched.Job) {
			e.res.RescuedSteps++
			e.sup.Note(j.Name, "rescue", "lost analysis job resubmitted")
			_ = e.postCluster.Submit(&sched.Job{Name: j.Name + "~r", Nodes: j.Nodes, Duration: j.Duration,
				OnStart: j.OnStart, OnComplete: j.OnComplete})
		}
	}
	return j
}

// run submits the simulation job emitting steps first..last and drives the
// clock until the event queue drains, a callback aborts (its error is
// returned) or, with until > 0, the virtual time of an injected process
// crash — ErrCampaignCrashed if events were still pending then.
func (e *engine) run(first, last int, until float64) error {
	e.first, e.last = first, last
	e.landed, e.postsDone = make([]bool, last+1), make([]bool, last+1)
	offsets, simDur := e.planEmissions()
	err := e.simCluster.Submit(&sched.Job{
		Name: e.simJob, Nodes: e.s.SimNodes, Duration: simDur,
		OnStart: func(j *sched.Job) {
			attempt := j.Attempt
			for step := first; step <= last; step++ {
				at := j.StartTime + offsets[step]
				step := step
				e.sim.At(at, func() {
					if j.Attempt != attempt {
						return // this attempt died before reaching the step
					}
					if e.obs != nil {
						// The step's segment ends here; lay its span down
						// retroactively under the campaign root. Uncharged:
						// the sim job's span already carries these nodes.
						dur, degraded := e.stepDur(step)
						sp := e.obs.SpanAt(e.camp, "step", fmt.Sprintf("step-%03d", step), at-dur, at)
						if degraded {
							sp.Arg("degraded", "spilled centers off-line")
						}
					}
					e.writing++
					e.write(step, 0)
				})
			}
		},
		OnComplete: func(j *sched.Job) { e.wrapUp(j.EndTime) },
		// Supervision may declare the sim job lost (hedging budget
		// exhausted): wrap up anyway so whatever landed still gets
		// analyzed — the run degrades, it never hangs.
		OnGiveUp: func(*sched.Job) { e.wrapUp(e.sim.Now()) },
	})
	if err != nil {
		return err
	}
	if until > 0 {
		// A crash at until stops the clock there, unless the queue drains
		// first: then it strikes nothing and the run ends with its last event.
		for t, ok := e.sim.Next(); ok && t <= until && e.err == nil; t, ok = e.sim.Next() {
			e.sim.Step()
		}
		if e.sim.Pending() > 0 {
			e.sim.RunUntil(until)
		}
	} else {
		e.sim.Run()
	}
	if e.err != nil {
		return e.err
	}
	if e.sim.Pending() > 0 {
		e.camp.Arg("crashed", "injected process crash").Done()
		return ErrCampaignCrashed
	}
	e.camp.Done()
	e.res.addCluster(e.simCluster)
	e.res.addCluster(e.postCluster)
	e.res.addFS(e.storage)
	if e.listener != nil {
		e.res.addListener(e.listener)
	}
	return nil
}

// abort records why the run cannot continue and stops the clock after the
// current event; run returns err.
func (e *engine) abort(err error) {
	e.err = err
	e.sim.Halt()
}

// write performs one step's Level 2 write, verifies the landed size
// against the writer's intent, and re-drives the write when it failed
// outright or landed silently truncated — the engine's recovery loop for
// storage faults. The step number rides on the file as its payload.
func (e *engine) write(step, attempt int) {
	path, bytes := l2Path(step), e.ph.levels.Level2Bytes
	e.storage.WriteChecked(path, bytes, 0, step, func(err error) {
		if err == nil {
			if _, verr := e.storage.VerifySize(path, bytes); verr == nil {
				e.writing--
				e.stepLanded(step)
				return // landed intact
			}
			e.storage.Delete(path) // truncated: drop the short file
		}
		if attempt+1 >= redriveLimit {
			e.writing-- // give up; the file is lost
			return
		}
		e.res.WritesRedriven++
		e.sim.After(writeRedriveDelay, func() { e.write(step, attempt+1) })
	})
}

func (e *engine) stepLanded(step int) {
	if e.landed[step] || e.err != nil {
		return
	}
	e.landed[step] = true
	if e.obs != nil {
		m := e.obs.Metrics()
		m.Counter("core.l2_files_landed").Inc()
		m.Counter("core.l2_bytes_landed").Add(e.ph.levels.Level2Bytes)
	}
	if e.onLanded != nil {
		e.onLanded(step)
	}
}

// wrapUp runs when the simulation job ends (completed or given up).
func (e *engine) wrapUp(at float64) {
	e.simEnd, e.simDone = at, true
	if e.listener == nil {
		// Simple & in-transit: "One 4-node job covering all timesteps ...
		// queued after sim" (Table 4).
		total := 0.0
		for step := e.first; step <= e.last; step++ {
			total += e.postDur(step)
		}
		_ = e.postCluster.Submit(e.postJob(0, 0, total))
		return
	}
	// "an additional instance of the listener would run after the job
	// completes to catch the last output data" (§3.2): one tick later, so
	// the final step's Level 2 file — whose visibility event shares this
	// timestamp — is seen.
	e.sim.After(1, func() {
		e.listener.Stop()
		e.drain(drainSweeps)
	})
}

// drain sweeps, and re-sweeps every poll interval while a submit refusal
// (or a cooling breaker) holds an analysis back or an emitted write is
// still being re-driven, so not yet visible: delayed, not lost. Fault-free
// the first sweep submits everything and no further event is scheduled.
func (e *engine) drain(sweeps int) {
	e.listener.FinalSweep()
	if sweeps > 1 && (e.writing > 0 || e.listener.Unseen() > 0) {
		e.sim.After(e.s.ListenerPoll, func() { e.drain(sweeps - 1) })
	}
}
