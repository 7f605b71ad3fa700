package sched

import (
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/fs"
)

// alwaysFail returns an injector that kills every job attempt.
func alwaysFail() *fault.Injector {
	return fault.MustNew(fault.Profile{Seed: 1, JobFailureProb: 1})
}

func TestJobFailsAndIsResubmitted(t *testing.T) {
	var sim des.Sim
	c, _ := NewCluster(&sim, smallMachine())
	// A 100%-failure injector: every attempt dies, the job is resubmitted
	// until RetryMaxAttempts attempts are spent, and give-up fires.
	c.Faults = alwaysFail()
	var gaveUp bool
	j := &Job{Name: "doomed", Nodes: 2, Duration: 100, OnGiveUp: func(*Job) { gaveUp = true }}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !gaveUp || !j.Failed || j.Completed {
		t.Errorf("job = %+v, gaveUp = %v", j, gaveUp)
	}
	if c.Attempts != 4 || c.FailedAttempts != 4 || c.Resubmits != 3 || c.LostJobs != 1 {
		t.Errorf("counters: attempts %d failed %d resubmits %d lost %d",
			c.Attempts, c.FailedAttempts, c.Resubmits, c.LostJobs)
	}
	if len(j.History) != 4 {
		t.Fatalf("history = %v", j.History)
	}
	// Each attempt dies at its drawn fraction of the 100 s run; the backoff
	// is 30 s before the second attempt and doubles per retry, each wait
	// stretched by its drawn jitter fraction of up to 25 %.
	var want []Attempt
	var lost, nodeSeconds float64
	start := 0.0
	for i, backoff := range []float64{30, 60, 120, 0} {
		frac, _ := c.Faults.JobAttempt("doomed", i)
		end := start + 100*frac
		want = append(want, Attempt{start, end})
		lost += end - start
		nodeSeconds += 2 * (end - start)
		start = end + (backoff + backoff*RetryJitterFrac*c.Faults.RetryJitter("doomed", i+1))
	}
	for i, a := range j.History {
		if a != want[i] {
			t.Errorf("attempt %d = %+v, want %+v", i, a, want[i])
		}
	}
	if c.TimeLost != lost || c.LostNodeSeconds != nodeSeconds {
		t.Errorf("time lost %v node-seconds %v, want %v and %v", c.TimeLost, c.LostNodeSeconds, lost, nodeSeconds)
	}
	if c.freeNodes != 10 {
		t.Errorf("failed job leaked nodes: free = %d", c.freeNodes)
	}
}

func TestJobRecoversOnRetry(t *testing.T) {
	// A moderate failure rate with enough attempts: most jobs complete
	// eventually, and completed jobs carry clean per-run state.
	var sim des.Sim
	c, _ := NewCluster(&sim, smallMachine())
	c.Faults = fault.MustNew(fault.Profile{Seed: 3, JobFailureProb: 0.5})
	var jobs []*Job
	for i := 0; i < 20; i++ {
		j := &Job{Name: fmt.Sprintf("j%d", i), Nodes: 1, Duration: 50}
		jobs = append(jobs, j)
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	completed := 0
	for _, j := range jobs {
		if j.Failed {
			continue
		}
		completed++
		if !j.Completed {
			t.Fatalf("job %s neither completed nor failed", j.Name)
		}
		if ran := j.EndTime - j.StartTime; ran < j.Duration-1e-9 || ran > j.Duration+1e-9 {
			t.Errorf("job %s final attempt ran %v, want %v", j.Name, ran, j.Duration)
		}
		if len(j.History) != j.Attempt {
			t.Errorf("job %s attempt %d but history %d", j.Name, j.Attempt, len(j.History))
		}
	}
	if completed == 0 {
		t.Error("no job ever completed under 50% failure with 4 attempts")
	}
	if c.FailedAttempts == 0 {
		t.Error("expected some failed attempts at 50% rate")
	}
	if c.freeNodes != 10 {
		t.Errorf("free = %d", c.freeNodes)
	}
}

// Satellite: Submit must reset per-run state so a resubmitted job does not
// carry its previous attempt's Started/Completed/times.
func TestSubmitResetsStaleState(t *testing.T) {
	var sim des.Sim
	c, _ := NewCluster(&sim, smallMachine())
	j := &Job{Name: "again", Nodes: 1, Duration: 10}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !j.Completed || j.EndTime != 10 {
		t.Fatalf("first run: %+v", j)
	}
	// Resubmit the same job object at t=10.
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	if j.Started || j.Completed || j.StartTime != 0 || j.EndTime != 0 {
		t.Errorf("stale state survived Submit: %+v", j)
	}
	sim.Run()
	if !j.Completed || j.StartTime != 10 || j.EndTime != 20 {
		t.Errorf("second run: %+v", j)
	}
}

func TestNodeDrainWithholdsCapacity(t *testing.T) {
	var sim des.Sim
	c, _ := NewCluster(&sim, smallMachine()) // 10 nodes
	c.ApplyDrains([]fault.Drain{{Window: fault.Window{Start: 0, End: 100}, Nodes: 8}})
	j := &Job{Name: "j", Nodes: 4, Duration: 10}
	sim.At(5, func() {
		if err := c.Submit(j); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	// Only 2 nodes free during the drain; the 4-node job must wait for the
	// window to end at t=100.
	if j.StartTime != 100 {
		t.Errorf("job started %v, want 100 (after drain)", j.StartTime)
	}
	if c.freeNodes != 10 {
		t.Errorf("free = %d after drain ended", c.freeNodes)
	}
}

func TestListenerOutageDropsPolls(t *testing.T) {
	var sim des.Sim
	storage := fs.New(&sim, "lustre")
	c, _ := NewCluster(&sim, smallMachine())
	l := &Listener{
		Sim: &sim, FS: storage, Cluster: c, Prefix: "out/",
		PollInterval: 10,
		Faults:       fault.MustNew(fault.Profile{ListenerOutages: []fault.Window{{Start: 15, End: 45}}}),
		MakeJob: func(path string, f *fs.File) *Job {
			return &Job{Name: path, Nodes: 1, Duration: 1}
		},
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	// File lands at t=12, during the outage approach; polls at 20, 30, 40
	// are lost, so the file is only picked up at t=50.
	sim.At(12, func() { storage.Write("out/a", 1, 0, nil, nil) })
	sim.At(100, func() { l.Stop() })
	sim.Run()
	if l.MissedPolls != 3 {
		t.Errorf("missed polls = %d, want 3", l.MissedPolls)
	}
	if l.Submitted != 1 {
		t.Fatalf("submitted = %d", l.Submitted)
	}
	if start := c.Finished()[0].SubmitTime; start != 50 {
		t.Errorf("job submitted at %v, want 50 (first poll after outage)", start)
	}
}

// Satellite: a Submit failure must not mark the file seen — the next poll
// retries instead of silently dropping the analysis forever.
func TestSweepRetriesAfterSubmitFailure(t *testing.T) {
	var sim des.Sim
	storage := fs.New(&sim, "lustre")
	c, _ := NewCluster(&sim, smallMachine()) // 10 nodes
	requested := 11                          // too big: Submit fails
	l := &Listener{
		Sim: &sim, FS: storage, Cluster: c, Prefix: "out/",
		PollInterval: 10,
		MakeJob: func(path string, f *fs.File) *Job {
			return &Job{Name: path, Nodes: requested, Duration: 5}
		},
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	storage.Write("out/a", 1, 0, nil, nil)
	// After two failing polls the "template" is fixed and submission works.
	sim.At(25, func() { requested = 2 })
	sim.At(60, func() { l.Stop() })
	sim.Run()
	if l.Submitted != 1 {
		t.Errorf("submitted = %d; Submit failure must be retried on later polls", l.Submitted)
	}
	if len(c.Finished()) != 1 {
		t.Fatalf("finished = %d", len(c.Finished()))
	}
	if at := c.Finished()[0].SubmitTime; at != 30 {
		t.Errorf("job submitted at %v, want 30 (first poll after the fix)", at)
	}
}

func TestRetryBackoffJitterIsDeterministic(t *testing.T) {
	run := func() []Attempt {
		var sim des.Sim
		c, _ := NewCluster(&sim, smallMachine())
		c.Faults = fault.MustNew(fault.Profile{Seed: 9, JobFailureProb: 1})
		j := &Job{Name: "jittery", Nodes: 1, Duration: 100}
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
		sim.Run()
		return j.History
	}
	a, b := run(), run()
	if len(a) != 4 {
		t.Fatalf("history = %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jittered schedule not reproducible: %v vs %v", a, b)
		}
	}
	// Jitter must actually stretch the backoff beyond the deterministic
	// floor for at least one retry (probability of all-zero draws is nil).
	stretched := false
	floor := []float64{0, 30, 60, 120} // pure exponential backoffs
	for i := 1; i < len(a); i++ {
		gap := a[i].Start - a[i-1].End
		if gap > floor[i]+1e-9 {
			stretched = true
		}
		if gap < floor[i] {
			t.Errorf("retry %d backoff %v below floor %v", i, gap, floor[i])
		}
	}
	if !stretched {
		t.Error("jitter never exceeded the deterministic backoff floor")
	}
}
