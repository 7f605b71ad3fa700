package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/fs"
	"repro/internal/platform"
)

func smallMachine() platform.Machine {
	return platform.Machine{
		Name: "test", Nodes: 10, CoresPerNode: 16, ChargeFactor: 30,
		CPUFactor: 1, IOBandwidth: 1e9, NetBandwidth: 1e9,
	}
}

func TestSubmitValidation(t *testing.T) {
	var sim des.Sim
	c, err := NewCluster(&sim, smallMachine())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(&Job{Name: "too-big", Nodes: 11, Duration: 1}); err == nil {
		t.Error("expected node-count error")
	}
	if err := c.Submit(&Job{Name: "zero", Nodes: 0, Duration: 1}); err == nil {
		t.Error("expected zero-node error")
	}
	if err := c.Submit(&Job{Name: "neg", Nodes: 1, Duration: -1}); err == nil {
		t.Error("expected duration error")
	}
	if _, err := NewCluster(&sim, platform.Machine{Name: "bad"}); err == nil {
		t.Error("expected machine validation error")
	}
}

func TestJobRunsAndFreesNodes(t *testing.T) {
	var sim des.Sim
	c, _ := NewCluster(&sim, smallMachine())
	j := &Job{Name: "a", Nodes: 4, Duration: 100}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !j.Completed || j.StartTime != 0 || j.EndTime != 100 {
		t.Errorf("job = %+v", j)
	}
	if c.freeNodes != 10 {
		t.Errorf("free = %d", c.freeNodes)
	}
	if len(c.Finished()) != 1 {
		t.Errorf("finished = %d", len(c.Finished()))
	}
}

func TestJobsQueueOnNodeContention(t *testing.T) {
	var sim des.Sim
	c, _ := NewCluster(&sim, smallMachine())
	a := &Job{Name: "a", Nodes: 8, Duration: 50}
	b := &Job{Name: "b", Nodes: 8, Duration: 30}
	if err := c.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(b); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if a.StartTime != 0 {
		t.Errorf("a started at %v", a.StartTime)
	}
	if b.StartTime != 50 {
		t.Errorf("b started at %v, want 50 (after a releases nodes)", b.StartTime)
	}
	if b.QueueWait() != 50 {
		t.Errorf("b waited %v", b.QueueWait())
	}
}

func TestSmallJobsCanRunTogether(t *testing.T) {
	var sim des.Sim
	c, _ := NewCluster(&sim, smallMachine())
	a := &Job{Name: "a", Nodes: 3, Duration: 50}
	b := &Job{Name: "b", Nodes: 3, Duration: 50}
	if err := c.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(b); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if a.StartTime != 0 || b.StartTime != 0 {
		t.Errorf("starts = %v %v, want both 0", a.StartTime, b.StartTime)
	}
}

// Titan's queue policy: at most two sub-125-node jobs at once (§3.2).
func TestTitanSmallJobPolicy(t *testing.T) {
	var sim des.Sim
	titan := platform.Titan()
	c, _ := NewCluster(&sim, titan)
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j := &Job{Name: fmt.Sprintf("small%d", i), Nodes: 4, Duration: 100}
		jobs = append(jobs, j)
		if err := c.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if jobs[0].StartTime != 0 || jobs[1].StartTime != 0 {
		t.Errorf("first two should start immediately: %v %v", jobs[0].StartTime, jobs[1].StartTime)
	}
	if jobs[2].StartTime != 100 || jobs[3].StartTime != 100 {
		t.Errorf("third/fourth must wait for policy: %v %v", jobs[2].StartTime, jobs[3].StartTime)
	}
	// A large job is not limited by the small-job policy.
	var sim2 des.Sim
	c2, _ := NewCluster(&sim2, titan)
	s1 := &Job{Name: "s1", Nodes: 4, Duration: 100}
	s2 := &Job{Name: "s2", Nodes: 4, Duration: 100}
	big := &Job{Name: "big", Nodes: 1000, Duration: 100}
	for _, j := range []*Job{s1, s2, big} {
		if err := c2.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	sim2.Run()
	if big.StartTime != 0 {
		t.Errorf("large job blocked by small-job policy: started %v", big.StartTime)
	}
}

func TestExtraQueueWait(t *testing.T) {
	var sim des.Sim
	c, _ := NewCluster(&sim, smallMachine())
	c.ExtraQueueWait = func(j *Job) float64 {
		if j.Nodes >= 10 {
			return 86400 // a day for full-machine requests
		}
		return 60
	}
	full := &Job{Name: "full", Nodes: 10, Duration: 10}
	small := &Job{Name: "small", Nodes: 1, Duration: 10}
	if err := c.Submit(full); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(small); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if small.StartTime != 60 {
		t.Errorf("small started %v, want 60", small.StartTime)
	}
	if full.StartTime != 86400 {
		t.Errorf("full started %v, want 86400", full.StartTime)
	}
}

func TestOnStartOnComplete(t *testing.T) {
	var sim des.Sim
	c, _ := NewCluster(&sim, smallMachine())
	var events []string
	j := &Job{
		Name: "j", Nodes: 1, Duration: 5,
		OnStart:    func(j *Job) { events = append(events, fmt.Sprintf("start@%v", j.StartTime)) },
		OnComplete: func(j *Job) { events = append(events, fmt.Sprintf("end@%v", j.EndTime)) },
	}
	if err := c.Submit(j); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(events) != 2 || events[0] != "start@0" || events[1] != "end@5" {
		t.Errorf("events = %v", events)
	}
}

// The listener: files appearing over time trigger analysis jobs while the
// "main job" still runs — co-scheduling.
func TestListenerSubmitsJobsAsFilesAppear(t *testing.T) {
	var sim des.Sim
	storage := fs.New(&sim, "lustre")
	c, _ := NewCluster(&sim, smallMachine())
	var analysisStarts []float64
	listener := &Listener{
		Sim: &sim, FS: storage, Cluster: c,
		Prefix:       "out/step",
		PollInterval: 10,
		MakeJob: func(path string, f *fs.File) *Job {
			return &Job{
				Name: "analyze-" + path, Nodes: 2, Duration: 30,
				OnStart: func(j *Job) { analysisStarts = append(analysisStarts, j.StartTime) },
			}
		},
	}
	if err := listener.Start(); err != nil {
		t.Fatal(err)
	}
	// Main application emits a file every 100 s.
	for i := 0; i < 3; i++ {
		at := float64(i) * 100
		path := fmt.Sprintf("out/step%03d.gio", i)
		sim.At(at, func() { storage.Write(path, 1e9, 5, nil, nil) })
	}
	// Main app "ends" at t=300; listener stops then.
	sim.At(300, func() { listener.Stop(); listener.FinalSweep() })
	sim.Run()
	if listener.Submitted != 3 {
		t.Fatalf("submitted = %d, want 3", listener.Submitted)
	}
	if len(analysisStarts) != 3 {
		t.Fatalf("starts = %v", analysisStarts)
	}
	// Each analysis job starts within one poll of its file landing.
	for i, start := range analysisStarts {
		landed := float64(i)*100 + 5
		if start < landed || start > landed+listener.PollInterval+1 {
			t.Errorf("job %d started %v, file landed %v", i, start, landed)
		}
	}
	if listener.Polls < 29 {
		t.Errorf("polls = %d", listener.Polls)
	}
}

func TestListenerValidation(t *testing.T) {
	var sim des.Sim
	storage := fs.New(&sim, "l")
	c, _ := NewCluster(&sim, smallMachine())
	l := &Listener{Sim: &sim, FS: storage, Cluster: c, PollInterval: 0, MakeJob: func(string, *fs.File) *Job { return nil }}
	if err := l.Start(); err == nil {
		t.Error("expected poll interval error")
	}
	l2 := &Listener{Sim: &sim, FS: storage, Cluster: c, PollInterval: 5}
	if err := l2.Start(); err == nil {
		t.Error("expected MakeJob error")
	}
}

func TestListenerFinalSweepCatchesLateFiles(t *testing.T) {
	var sim des.Sim
	storage := fs.New(&sim, "l")
	c, _ := NewCluster(&sim, smallMachine())
	l := &Listener{
		Sim: &sim, FS: storage, Cluster: c, Prefix: "out/",
		PollInterval: 1000, // slow poller
		MakeJob: func(path string, f *fs.File) *Job {
			return &Job{Name: path, Nodes: 1, Duration: 1}
		},
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	// File lands at t=10; main app ends at t=20, before the first poll.
	sim.At(10, func() { storage.Write("out/last.gio", 1, 0, nil, nil) })
	sim.At(20, func() { l.Stop(); l.FinalSweep() })
	sim.RunUntil(30)
	if l.Submitted != 1 {
		t.Errorf("submitted = %d; the final sweep must catch the last file", l.Submitted)
	}
}

func TestListenerSkipsNilJobs(t *testing.T) {
	var sim des.Sim
	storage := fs.New(&sim, "l")
	c, _ := NewCluster(&sim, smallMachine())
	l := &Listener{
		Sim: &sim, FS: storage, Cluster: c, Prefix: "out/",
		PollInterval: 5,
		MakeJob:      func(path string, f *fs.File) *Job { return nil },
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	storage.Write("out/x", 1, 0, nil, nil)
	sim.At(20, l.Stop)
	sim.Run()
	if l.Submitted != 0 {
		t.Errorf("submitted = %d", l.Submitted)
	}
}

// Property: under random job streams the scheduler never oversubscribes
// nodes, never starts a job before its eligibility, and completes every
// job.
func TestPropertySchedulerInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sim des.Sim
		m := smallMachine()
		m.Nodes = 16
		m.SmallJobLimit = 2
		m.SmallJobNodes = 4
		c, err := NewCluster(&sim, m)
		if err != nil {
			return false
		}
		c.ExtraQueueWait = func(j *Job) float64 { return float64(j.Nodes) }
		inUse := 0
		maxInUse := 0
		ok := true
		var jobs []*Job
		n := 5 + rng.Intn(30)
		for i := 0; i < n; i++ {
			j := &Job{
				Name:     fmt.Sprintf("j%d", i),
				Nodes:    1 + rng.Intn(16),
				Duration: float64(1 + rng.Intn(100)),
			}
			j.OnStart = func(j *Job) {
				inUse += j.Nodes
				if inUse > maxInUse {
					maxInUse = inUse
				}
				if inUse > m.Nodes {
					ok = false
				}
				if j.StartTime < j.EligibleTime {
					ok = false
				}
			}
			j.OnComplete = func(j *Job) { inUse -= j.Nodes }
			jobs = append(jobs, j)
			at := float64(rng.Intn(50))
			jLocal := j
			sim.At(at, func() {
				if err := c.Submit(jLocal); err != nil {
					ok = false
				}
			})
		}
		sim.Run()
		for _, j := range jobs {
			if !j.Completed {
				return false
			}
			if j.EndTime-j.StartTime != j.Duration {
				return false
			}
		}
		return ok && inUse == 0 && maxInUse <= m.Nodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
