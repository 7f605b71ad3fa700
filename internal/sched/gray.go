// Gray-failure supervision for the cluster: heartbeat/deadline/straggler
// watching of running attempts and hedged re-execution of suspects.
//
// A suspect primary gets a backup attempt submitted alongside it; the two
// race, the first finisher wins, and the loser is cancelled with its
// node-seconds accounted. The backup carries a distinct name (primary~hN)
// so its fault draws are independent, and completion is always projected
// onto the primary Job object — downstream code (listeners, campaign
// hooks) sees exactly one completion of the original job, which is why
// hedged duplicates can never double-count results.
package sched

import (
	"fmt"
	"math"

	"repro/internal/supervise"
)

// jobKey is the supervisor task key for a job's current attempt.
func jobKey(j *Job) string {
	return fmt.Sprintf("%s#%d", j.Name, j.Attempt)
}

// superviseStart watches a just-started attempt. beatHorizon is the
// virtual time progress stops (the stall or failure point; the effective
// end for healthy attempts — beats end with the job, and Done disarms the
// watch first anyway). The heartbeat is a pure function on the interval
// grid: the watchdog polls it once per miss window instead of the job
// scheduling one event per beat, keeping supervision overhead sub-percent.
func (c *Cluster) superviseStart(j *Job, beatDuration float64) {
	sv := c.Supervise
	if sv == nil {
		return
	}
	iv := sv.Policy().HeartbeatInterval
	start := j.StartTime
	horizon := start + beatDuration
	beat := func() float64 {
		now := c.Sim.Now()
		if now > horizon {
			now = horizon
		}
		if now <= start {
			return start
		}
		return start + math.Floor((now-start)/iv)*iv
	}
	sv.Watch(jobKey(j), j.Duration, beat, func(r supervise.Reason) { c.suspect(j, r) })
}

func (c *Cluster) superviseDone(j *Job) {
	c.Supervise.Done(jobKey(j))
}

func (c *Cluster) superviseForget(j *Job) {
	c.Supervise.Forget(jobKey(j))
}

// suspect handles a supervision verdict on the job's current attempt.
func (c *Cluster) suspect(j *Job, r supervise.Reason) {
	if j.Completed || j.Failed || j.cancelled {
		return
	}
	if p := j.hedgeOf; p != nil {
		// The backup itself went gray: cancel it and escalate the primary
		// (another hedge, or declare the job lost).
		c.cancelJob(j, "backup went "+string(r))
		p.hedge = nil
		c.escalate(p, supervise.ReasonBackupFailed)
		return
	}
	if j.hedge != nil {
		return // already hedged; let the race play out
	}
	c.escalate(j, r)
}

// escalate responds to a suspect primary: hedge a backup attempt while the
// budget lasts, then declare the job lost. A cancelled (preempted) primary
// still escalates — its backup is now the only live attempt, and when that
// backup dies the job needs another hedge or a loss declaration.
func (c *Cluster) escalate(j *Job, r supervise.Reason) {
	if j.Completed || j.Failed {
		return
	}
	max := c.Supervise.Policy().MaxHedges
	if j.hedges < max {
		c.launchHedge(j, r)
	} else {
		c.declareLost(j, r)
	}
}

// launchHedge submits a backup attempt racing the suspect primary. The
// backup shares the primary's OnStart (so re-emitted side effects follow
// the same per-attempt gating as retries) but not its OnComplete — the
// race winner's completion is projected onto the primary exactly once.
func (c *Cluster) launchHedge(p *Job, r supervise.Reason) {
	p.hedges++
	c.HedgesLaunched++
	c.obsCount("sched.hedges_launched")
	b := &Job{
		Name:     fmt.Sprintf("%s~h%d", p.Name, p.hedges),
		Nodes:    p.Nodes,
		Duration: p.Duration,
		OnStart:  p.OnStart,
		hedgeOf:  p,
	}
	p.hedge = b
	c.Supervise.Note(jobKey(p), "hedge", fmt.Sprintf("%s: backup %s launched", r, b.Name))
	_ = c.Submit(b)
	if b.Nodes > c.freeNodes || (c.isSmall(b) && c.runningSmall >= c.Machine.SmallJobLimit) {
		// The cluster cannot run the suspect and its backup side by side
		// (node shortage or the facility's small-job policy): racing would
		// deadlock the backup behind the very straggler it replaces, so
		// preempt the suspect and let the backup inherit its slot.
		c.cancelJob(p, "preempted: no room to race backup "+b.Name)
		c.trySchedule()
	}
}

// hedgeWin projects a winning backup's completion onto its primary.
func (c *Cluster) hedgeWin(b, p *Job) {
	now := c.Sim.Now()
	c.HedgeWins++
	c.obsCount("sched.hedge_wins")
	c.Supervise.Note(jobKey(p), "hedge-win", fmt.Sprintf("backup %s finished first", b.Name))
	c.cancelJob(p, "lost the race to its backup")
	p.hedge = nil
	p.Completed = true
	p.EndTime = now
	c.finished = append(c.finished, p)
	if p.OnComplete != nil {
		p.OnComplete(p)
	}
	c.trySchedule()
}

// declareLost gives up on a job no recovery path can save (hedging budget
// exhausted): its nodes are reclaimed and OnGiveUp fires so the workflow
// layer can degrade the step to the off-line path.
func (c *Cluster) declareLost(j *Job, r supervise.Reason) {
	c.Supervise.Note(jobKey(j), "lost", string(r)+": hedging budget exhausted")
	c.cancelJob(j, string(r))
	j.Failed = true
	c.LostJobs++
	c.obsCount("sched.jobs_lost")
	if j.OnGiveUp != nil {
		j.OnGiveUp(j)
	}
	c.trySchedule()
}

// cancelJob kills an attempt: a running one frees its nodes (the reclaimed
// node-seconds are accounted as straggler loss), a pending one leaves the
// queue. Its pending completion, failure or resubmission never runs; the
// attempt bump tells core's step emissions the attempt is over.
func (c *Cluster) cancelJob(j *Job, why string) {
	if j.Completed || j.Failed || j.cancelled {
		return
	}
	j.cancelled = true
	j.timer.Stop()
	c.superviseForget(j)
	c.obsEnd(j, "cancelled")
	c.Supervise.Note(jobKey(j), "cancel", why)
	j.Attempt++
	if j.Started {
		c.freeNodes += j.Nodes
		if c.isSmall(j) {
			c.runningSmall--
		}
		c.StragglerNodeSeconds += float64(j.Nodes) * (c.Sim.Now() - j.StartTime)
		return
	}
	for i, q := range c.pending {
		if q == j {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
}
