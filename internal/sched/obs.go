// Observability hooks for the scheduler: job spans and queue metrics.
//
// Every helper here is a no-op when Cluster.Obs / Listener.Obs is nil —
// the guard is a single pointer check, so the uninstrumented path stays
// allocation-free.
// Span timestamps come exclusively from the cluster's DES clock via the
// observer's injected Clock; see the obs package determinism contract.
package sched

import (
	"strconv"

	"repro/internal/obs"
)

// Histogram bucket bounds, fixed so shard merges stay associative and
// encode order deterministic. Queue waits span seconds (co-scheduled
// small jobs) to days (full-machine off-line allocations, §4.2).
var (
	// QueueWaitBounds buckets job queue waits in seconds.
	QueueWaitBounds = []float64{1, 10, 60, 300, 900, 3600, 14400, 86400, 604800}
	// RunTimeBounds buckets effective job run times in seconds.
	RunTimeBounds = []float64{10, 30, 60, 120, 300, 900, 3600, 14400}
)

// obsSubmit counts a submission (first runs, retries, and hedges alike).
func (c *Cluster) obsSubmit(j *Job) {
	if c.Obs == nil {
		return
	}
	c.Obs.Metrics().Counter("sched.jobs_submitted").Inc()
	c.Obs.Metrics().Gauge("sched.queue_depth").Set(float64(len(c.pending)))
}

// obsStart opens the attempt's span (named name#attempt, charged at the
// job's node count on this cluster's machine) and records the queue wait.
func (c *Cluster) obsStart(j *Job) {
	if c.Obs == nil {
		return
	}
	j.span = c.Obs.Begin("job", jobKey(j)).Charge(c.Machine, j.Nodes)
	m := c.Obs.Metrics()
	m.Counter("sched.attempts").Inc()
	m.Histogram("sched.queue_wait_seconds", QueueWaitBounds).Observe(j.QueueWait())
}

// obsEnd closes the attempt's span with an outcome annotation and, for
// completed attempts, feeds the run-time histogram.
func (c *Cluster) obsEnd(j *Job, outcome string) {
	if c.Obs == nil || j.span == nil {
		return
	}
	j.span.Arg("outcome", outcome)
	if j.Attempt > 0 {
		j.span.Arg("attempt", strconv.Itoa(j.Attempt))
	}
	j.span.Done()
	j.span = nil
	m := c.Obs.Metrics()
	m.Counter("sched.attempts_" + outcome).Inc()
	if outcome == "ok" {
		m.Histogram("sched.run_seconds", RunTimeBounds).Observe(j.EffDuration)
	}
}

// obsCount bumps a plain cluster counter (hedges, losses).
func (c *Cluster) obsCount(name string) {
	if c.Obs == nil {
		return
	}
	c.Obs.Metrics().Counter(name).Inc()
}

// listenerCounters caches the listener's registry counters: a listener
// polls far more often than anything lands, and a lookup by name per poll
// showed in the campaign profile.
type listenerCounters struct {
	polls, missedPolls, breakerSkips, submitFaults, submitted *obs.Counter
}

// obsCount bumps a listener counter, resolving it in the registry on its
// first bump only — a counter never bumped never appears in the metrics
// dump.
func (l *Listener) obsCount(c **obs.Counter, name string) {
	if l.Obs == nil {
		return
	}
	if *c == nil {
		*c = l.Obs.Metrics().Counter(name)
	}
	(*c).Inc()
}
