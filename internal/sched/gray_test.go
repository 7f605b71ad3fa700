package sched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/supervise"
)

// alwaysStall returns an injector that hangs every attempt of every job.
func alwaysStall() *fault.Injector {
	return fault.MustNew(fault.Profile{Seed: 1, JobStallProb: 1})
}

// supervisedCluster builds a 10-node cluster with gray-failure
// supervision attached.
func supervisedCluster(sim *des.Sim) *Cluster {
	c, _ := NewCluster(sim, smallMachine())
	c.Supervise = supervise.New(sim, supervise.DefaultPolicy())
	return c
}

func TestStalledJobRecoveredByHedge(t *testing.T) {
	var sim des.Sim
	c := supervisedCluster(&sim)
	// Stall draws are keyed by job name, and a backup's name (~h1 suffix)
	// draws independently: pick a seed where the primary stalls but its
	// backup runs clean.
	var seed int64
	for s := int64(1); s < 200; s++ {
		in := fault.MustNew(fault.Profile{Seed: s, JobStallProb: 0.5})
		_, p := in.JobStall("j", 0)
		_, b := in.JobStall("j~h1", 0)
		if p && !b {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed stalls the primary but not the backup")
	}
	c.Faults = fault.MustNew(fault.Profile{Seed: seed, JobStallProb: 0.5})
	var completions int
	j := &Job{Name: "j", Nodes: 2, Duration: 1000, OnComplete: func(*Job) { completions++ }}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !j.Completed {
		t.Fatalf("stalled job never recovered: %+v", j)
	}
	if completions != 1 {
		t.Errorf("OnComplete fired %d times; hedged duplicates must not double-count", completions)
	}
	if c.StalledAttempts != 1 || c.HedgesLaunched != 1 || c.HedgeWins != 1 {
		t.Errorf("stalls %d hedges %d wins %d, want 1/1/1",
			c.StalledAttempts, c.HedgesLaunched, c.HedgeWins)
	}
	if c.StragglerNodeSeconds <= 0 {
		t.Error("cancelled stalled primary's node-seconds not accounted")
	}
	if c.freeNodes != 10 {
		t.Errorf("free = %d; the stalled primary leaked its nodes", c.freeNodes)
	}
	// The hedge decision log exists and reproduces.
	var hedges int
	for _, d := range c.Supervise.Decisions() {
		if d.Event == "hedge" {
			hedges++
		}
	}
	if hedges != 1 {
		t.Errorf("decision log hedges = %d", hedges)
	}
}

func TestHedgingBudgetExhaustedDeclaresLost(t *testing.T) {
	var sim des.Sim
	c := supervisedCluster(&sim)
	c.Faults = alwaysStall() // every attempt, primary and backups, stalls
	var gaveUp bool
	j := &Job{Name: "doomed", Nodes: 2, Duration: 1000, OnGiveUp: func(*Job) { gaveUp = true }}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !gaveUp || !j.Failed || j.Completed {
		t.Fatalf("job = %+v, gaveUp = %v", j, gaveUp)
	}
	// Primary + MaxHedges backups all stalled; every one was reclaimed.
	if c.HedgesLaunched != supervise.MaxHedges {
		t.Errorf("hedges = %d, want the full budget %d", c.HedgesLaunched, supervise.MaxHedges)
	}
	if c.StalledAttempts != 1+c.HedgesLaunched {
		t.Errorf("stalls = %d", c.StalledAttempts)
	}
	if c.LostJobs != 1 {
		t.Errorf("lost = %d", c.LostJobs)
	}
	if c.freeNodes != 10 {
		t.Errorf("free = %d; stalled attempts leaked nodes", c.freeNodes)
	}
	if c.HedgeWins != 0 {
		t.Errorf("wins = %d", c.HedgeWins)
	}
}

func TestPrimaryBeatsItsBackup(t *testing.T) {
	var sim des.Sim
	c := supervisedCluster(&sim)
	// A 3x slowdown on a job whose deadline is 4x+120 never trips the
	// deadline... so use the straggler path: seed six fast peers first.
	for i := 0; i < 6; i++ {
		j := &Job{Name: fmt.Sprintf("peer%d", i), Nodes: 1, Duration: 100}
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	// Every attempt runs slow. A primary slowed past 3.7x is still running
	// at the 360 s watchdog poll and is hedged as a straggler (3x the
	// peers), but its backup starts then and runs at least 1.5x slow: the
	// primary finishes first.
	for seed := int64(1); c.Faults == nil; seed++ {
		if in := fault.MustNew(fault.Profile{Seed: seed, JobSlowdownProb: 1}); in.JobSlowdown("slow", 0) > 3.7 {
			c.Faults = in
		}
	}
	var completions int
	j := &Job{Name: "slow", Nodes: 2, Duration: 100, OnComplete: func(*Job) { completions++ }}
	sim.At(700, func() {
		if err := c.Submit(j); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	if !j.Completed || completions != 1 {
		t.Fatalf("job = %+v completions = %d", j, completions)
	}
	if want := 700 + 100*c.Faults.JobSlowdown("slow", 0); j.EndTime != want {
		t.Errorf("primary finished at %v, want %v", j.EndTime, want)
	}
	if c.HedgesLaunched == 0 {
		t.Error("straggling primary was never hedged")
	}
	if c.HedgeWins != 0 {
		t.Error("backup recorded a win although the primary finished first")
	}
	// Exactly one completion of "slow" in the finished list.
	n := 0
	for _, f := range c.Finished() {
		if f == j {
			n++
		}
	}
	if n != 1 {
		t.Errorf("job appears %d times in finished", n)
	}
}

// A backup fails mid-run while its own completion event is still queued,
// and sits in retry backoff when the primary completes. The primary's
// finish cancels the backup exactly once: its nodes (already freed by the
// failure) are not freed again, neither its queued completion nor its
// backoff resubmission ever runs, and the primary completes once. (Found
// in review of the hedging PR as a double-free plus a resurrected backup.)
func TestBackupFailingInBackoffIsCancelledOnce(t *testing.T) {
	var sim des.Sim
	c := supervisedCluster(&sim)

	completions := 0
	p := &Job{Name: "p", Nodes: 4, Duration: 30, OnComplete: func(*Job) { completions++ }}
	if err := c.Submit(p); err != nil {
		t.Fatal(err)
	}
	sim.At(10, func() { c.suspect(p, supervise.ReasonStraggler) }) // launches the backup
	sim.At(20, func() {                                            // backup dies mid-run: resubmit queued for t=50
		if p.hedge == nil || !p.hedge.Started {
			t.Fatalf("backup not racing at t=20: %+v", p.hedge)
		}
		c.fail(p.hedge)
	})
	sim.Run()

	if c.freeNodes != c.Machine.Nodes {
		t.Errorf("freeNodes %d on a drained %d-node machine (double-free)", c.freeNodes, c.Machine.Nodes)
	}
	if completions != 1 || len(c.Finished()) != 1 {
		t.Errorf("primary OnComplete fired %d times, finished list has %d entries; want 1 and 1", completions, len(c.Finished()))
	}
	if c.Attempts != 2 {
		t.Errorf("%d attempts started, want 2 (the cancelled backup must not be resubmitted)", c.Attempts)
	}
	if sim.Now() != 30 {
		t.Errorf("queue drained at t=%v, want 30: a stopped completion or resubmission still ran", sim.Now())
	}
}

func TestSlowdownStretchesEffDuration(t *testing.T) {
	var sim des.Sim
	c, _ := NewCluster(&sim, smallMachine())
	c.Faults = fault.MustNew(fault.Profile{Seed: 5, JobSlowdownProb: 1})
	j := &Job{Name: "j", Nodes: 1, Duration: 100}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	want := 100 * c.Faults.JobSlowdown("j", 0)
	if want <= 100 || j.EffDuration != want || j.EndTime != want {
		t.Errorf("eff %v end %v, want %v", j.EffDuration, j.EndTime, want)
	}
}

func TestHedgeDecisionLogReproducible(t *testing.T) {
	run := func() []supervise.Decision {
		var sim des.Sim
		c := supervisedCluster(&sim)
		c.Faults = fault.MustNew(fault.Profile{Seed: 21, JobStallProb: 0.4, JobSlowdownProb: 0.3})
		for i := 0; i < 12; i++ {
			j := &Job{Name: fmt.Sprintf("j%d", i), Nodes: 1, Duration: 200}
			if err := c.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		sim.Run()
		return c.Supervise.Decisions()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("decision logs differ across identical runs:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no decisions under a stalling profile")
	}
}

// Cluster.fail resubmits only while Attempt < RetryMaxAttempts, so the
// retry indices are 1-3 and the backoff, before jitter, is at most 120 s.
func TestRetryBackoffCappedAtMaxDelay(t *testing.T) {
	if RetryMaxAttempts != 4 {
		t.Fatalf("RetryMaxAttempts = %d: the retry indices below are 1-3", RetryMaxAttempts)
	}
	for attempt, want := range map[int]float64{1: 30, 2: 60, 3: 120} {
		if d := retryDelay(nil, "j", attempt); d != want {
			t.Errorf("attempt %d: delay %v, want %v", attempt, d, want)
		}
	}
}

func TestListenerBreakerBacksOffSubmitFailures(t *testing.T) {
	var sim des.Sim
	storage := fs.New(&sim, "lustre")
	c, _ := NewCluster(&sim, smallMachine())
	// Every submission attempt is refused: the breaker must open after 3
	// consecutive refusals and skip instead of hot-looping.
	l := &Listener{
		Sim: &sim, FS: storage, Cluster: c, Prefix: "out/",
		PollInterval: 10,
		Faults:       fault.MustNew(fault.Profile{Seed: 2, SubmitFailProb: 1}),
		Breaker:      supervise.NewBreaker(sim.Now),
		MakeJob: func(path string, f *fs.File) *Job {
			return &Job{Name: path, Nodes: 1, Duration: 1}
		},
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	storage.Write("out/a", 1, 0, nil, nil)
	sim.At(300, func() { l.Stop() })
	sim.Run()
	if l.Submitted != 0 {
		t.Fatalf("submitted = %d under certain refusal", l.Submitted)
	}
	if l.Breaker.Opens == 0 {
		t.Error("breaker never opened under repeated refusals")
	}
	if l.BreakerSkips == 0 {
		t.Error("open breaker never skipped a submission")
	}
	// 29 polls; without the breaker every one would attempt a submission.
	if l.SubmitFaults >= l.Polls {
		t.Errorf("submit attempts %d not reduced below polls %d", l.SubmitFaults, l.Polls)
	}
}

func TestListenerRecoversWhenRefusalsStop(t *testing.T) {
	var sim des.Sim
	storage := fs.New(&sim, "lustre")
	c, _ := NewCluster(&sim, smallMachine())
	// Refusals are certain for the first 3 tries of the path, then clear:
	// SubmitFail is keyed by (path, try), so pick a seed where try >= 3
	// succeeds. With probability 1 every try fails; model recovery by
	// swapping the injector at t=150 instead.
	l := &Listener{
		Sim: &sim, FS: storage, Cluster: c, Prefix: "out/",
		PollInterval: 10,
		Faults:       fault.MustNew(fault.Profile{Seed: 2, SubmitFailProb: 1}),
		Breaker:      supervise.NewBreaker(sim.Now),
		MakeJob: func(path string, f *fs.File) *Job {
			return &Job{Name: path, Nodes: 1, Duration: 1}
		},
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	storage.Write("out/a", 1, 0, nil, nil)
	sim.At(150, func() { l.Faults = nil }) // front-end recovers
	sim.At(400, func() { l.Stop() })
	sim.Run()
	if l.Submitted != 1 {
		t.Fatalf("submitted = %d after recovery", l.Submitted)
	}
	if len(c.Finished()) != 1 {
		t.Errorf("finished = %d", len(c.Finished()))
	}
	// The half-open probe discovered the recovery: the breaker is closed.
	if l.Breaker.State() != supervise.BreakerClosed {
		t.Errorf("breaker %v after recovery", l.Breaker.State())
	}
}

func TestUnsupervisedClusterUnchangedByNilSupervisor(t *testing.T) {
	// Supervision off: the event sequence must match the pre-supervision
	// model exactly (EffDuration == Duration, no hedges, no decisions).
	var sim des.Sim
	c, _ := NewCluster(&sim, smallMachine())
	c.Faults = fault.MustNew(fault.Profile{Seed: 3, JobFailureProb: 0.5})
	for i := 0; i < 10; i++ {
		j := &Job{Name: fmt.Sprintf("j%d", i), Nodes: 1, Duration: 50}
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if c.HedgesLaunched != 0 || c.HedgeWins != 0 || c.StalledAttempts != 0 || c.StragglerNodeSeconds != 0 {
		t.Errorf("gray counters nonzero without gray faults: %+v", c)
	}
	for _, j := range c.Finished() {
		if j.EffDuration != j.Duration {
			t.Errorf("job %s eff %v != duration %v without slowdowns", j.Name, j.EffDuration, j.Duration)
		}
	}
}
