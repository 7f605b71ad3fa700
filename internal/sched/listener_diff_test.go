package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/supervise"
)

// refListener is the listener as it was before the arrival log: every sweep
// lists the whole prefix, sorted, and skips what it has seen. It is the
// oracle the cursor listener is compared against.
type refListener struct {
	*Listener
	seen  map[string]bool
	tries map[string]int
}

func (r *refListener) poll() {
	r.Polls++
	if r.Faults.ListenerDown(r.Sim.Now()) {
		r.MissedPolls++
	} else {
		r.sweep()
	}
	r.timer = r.Sim.After(r.PollInterval, r.poll) // Listener.Stop stops it
}

func (r *refListener) sweep() {
	for _, path := range r.FS.List(r.Prefix) {
		if r.seen[path] {
			continue
		}
		if !r.Breaker.Allow() {
			r.BreakerSkips++
			continue
		}
		f, _ := r.FS.Stat(path)
		try := r.tries[path]
		r.tries[path] = try + 1
		if r.Faults.SubmitFail(path, try) {
			r.SubmitFaults++
			r.Breaker.Failure()
			continue
		}
		job := r.MakeJob(path, f)
		if job == nil {
			r.seen[path] = true
			continue
		}
		if err := r.Cluster.Submit(job); err != nil {
			r.Breaker.Failure()
			continue
		}
		r.Breaker.Success()
		r.seen[path] = true
		r.Submitted++
	}
}

func (r *refListener) unseen() int {
	n := 0
	for _, path := range r.FS.List(r.Prefix) {
		if !r.seen[path] {
			n++
		}
	}
	return n
}

// listenerAction is one scripted event of a listener scenario.
type listenerAction struct {
	at   float64
	kind string // "write", "delete", "restore", "sweep"
	path string
	dur  float64
}

// listenerScript is a whole scenario: both listeners replay it on their own
// clock, storage, cluster, injector and breaker.
type listenerScript struct {
	profile  fault.Profile
	breaker  bool
	preSeen  []string
	restored []string // on the tier before Start
	actions  []listenerAction
}

// listenerStopAt is when every scenario stops its listener and sweeps once
// more, after the last scripted action.
const listenerStopAt = 400

// listenerTrace is everything the two listeners must agree on.
type listenerTrace struct {
	Offered   []string // MakeJob calls, in order
	Jobs      []string // submitted job names, in order: numbered by submission
	Unseen    []int    // after each scripted sweep and after the final one
	Submitted int
	Polls     int
	Missed    int
	Faults    int
	Skips     int
	Finished  int
}

func (sc *listenerScript) run(useRef bool) listenerTrace {
	var sim des.Sim
	var tr listenerTrace
	storage := fs.New(&sim, "lustre")
	inj := fault.MustNew(sc.profile)
	storage.SetFaults(inj)
	c, _ := NewCluster(&sim, smallMachine())
	calls := map[string]int{}
	l := &Listener{
		Sim: &sim, FS: storage, Cluster: c, Prefix: "l2/", PollInterval: 10, Faults: inj,
		MakeJob: func(path string, f *fs.File) *Job {
			tr.Offered = append(tr.Offered, path)
			calls[path]++
			switch path[len(path)-1] {
			case '7':
				return nil // explicit skip
			case '3':
				if calls[path] <= 2 {
					return &Job{Name: path, Nodes: 99, Duration: 1} // Submit refuses it
				}
			}
			name := fmt.Sprintf("post-%03d:%s", len(tr.Jobs)+1, path)
			tr.Jobs = append(tr.Jobs, name)
			return &Job{Name: name, Nodes: 1, Duration: 3}
		},
	}
	if sc.breaker {
		l.Breaker = supervise.NewBreaker(sim.Now)
	}
	ref := &refListener{Listener: l, seen: map[string]bool{}, tries: map[string]int{}}
	for _, p := range sc.restored {
		storage.Restore(p, 1, nil)
	}
	for _, p := range sc.preSeen {
		if useRef {
			ref.seen[p] = true
		} else {
			l.MarkSeen(p)
		}
	}
	sweep, unseen := l.FinalSweep, l.Unseen
	if useRef {
		sweep, unseen = ref.sweep, ref.unseen
		l.timer = sim.After(l.PollInterval, ref.poll)
	} else if err := l.Start(); err != nil {
		panic(err)
	}
	for _, a := range sc.actions {
		a := a
		sim.At(a.at, func() {
			switch a.kind {
			case "write":
				storage.WriteChecked(a.path, 100, a.dur, nil, nil)
			case "delete":
				storage.Delete(a.path)
			case "restore":
				storage.Restore(a.path, 1, nil)
			case "sweep":
				sweep()
				tr.Unseen = append(tr.Unseen, unseen())
			}
		})
	}
	sim.At(listenerStopAt, func() {
		l.Stop()
		sweep()
		tr.Unseen = append(tr.Unseen, unseen())
	})
	sim.Run()
	tr.Submitted, tr.Polls, tr.Missed = l.Submitted, l.Polls, l.MissedPolls
	tr.Faults, tr.Skips, tr.Finished = l.SubmitFaults, l.BreakerSkips, len(c.Finished())
	return tr
}

// randomListenerScript draws a scenario: a dozen watched paths (and one
// unwatched) landing, re-landing, truncating, failing and being deleted at
// random virtual times, under outages, submit refusals and a breaker.
func randomListenerScript(rng *rand.Rand) *listenerScript {
	sc := &listenerScript{breaker: rng.Intn(3) > 0}
	sc.profile = fault.Profile{Seed: rng.Int63n(1 << 30), WriteFailProb: 0.1, WriteTruncateProb: 0.1}
	if rng.Intn(2) == 0 {
		sc.profile.SubmitFailProb = []float64{0.2, 0.6, 1}[rng.Intn(3)]
	}
	for n := rng.Intn(3); n > 0; n-- {
		start := float64(rng.Intn(350))
		sc.profile.ListenerOutages = append(sc.profile.ListenerOutages, fault.Window{Start: start, End: start + 1 + float64(rng.Intn(80))})
	}
	path := func() string {
		if rng.Intn(12) == 0 {
			return "other/x"
		}
		return fmt.Sprintf("l2/step%03d", rng.Intn(12))
	}
	for n := rng.Intn(4); n > 0; n-- {
		sc.restored = append(sc.restored, path())
	}
	for n := rng.Intn(4); n > 0; n-- {
		sc.preSeen = append(sc.preSeen, path())
	}
	for n := 10 + rng.Intn(50); n > 0; n-- {
		a := listenerAction{at: float64(rng.Intn(380)), path: path()}
		switch k := rng.Intn(10); {
		case k < 5:
			a.kind, a.dur = "write", float64(rng.Intn(3)*rng.Intn(20))
		case k < 8:
			a.kind = "delete"
		case k < 9:
			a.kind = "restore"
		default:
			a.kind = "sweep"
		}
		sc.actions = append(sc.actions, a)
	}
	return sc
}

// The cursor listener and the scan-and-sort reference agree on what was
// offered and submitted in which order and on every counter, whatever lands,
// re-lands, vanishes or is refused, and whenever the listener is down.
func TestListenerMatchesScanAndSortReference(t *testing.T) {
	prop := func(seed int64) bool {
		sc := randomListenerScript(rand.New(rand.NewSource(seed)))
		got, want := sc.run(false), sc.run(true)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d\ncursor:    %+v\nreference: %+v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(16))}); err != nil {
		t.Error(err)
	}
}

// A truncated file is deleted while it waits behind an open breaker, and
// the re-driven write lands later: the vanished file is dropped without
// consulting the breaker (the old List would not have returned it) and the
// path is submitted exactly once.
func TestListenerDropsDeletedPendingFileBeforeBreaker(t *testing.T) {
	sc := &listenerScript{
		breaker: true,
		// Refusals are certain, so the breaker opens on the first file and
		// the second waits behind it.
		profile: fault.Profile{Seed: 2, SubmitFailProb: 1},
		actions: []listenerAction{
			{at: 1, kind: "write", path: "l2/step001"},
			{at: 1, kind: "write", path: "l2/step002"},
			{at: 75, kind: "delete", path: "l2/step002"}, // pending, breaker open
			{at: 200, kind: "write", path: "l2/step002"}, // the re-drive lands
		},
	}
	got, want := sc.run(false), sc.run(true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cursor listener diverged from the reference:\n got %+v\nwant %+v", got, want)
	}
	if got.Skips == 0 || got.Faults == 0 {
		t.Errorf("scenario never exercised the breaker: %+v", got)
	}

	// A path whose first two jobs Submit refuses (see run's MakeJob): the
	// file vanishes while the path waits for its retry, the re-drive lands,
	// and the path is submitted exactly once.
	sc = &listenerScript{
		breaker: true,
		actions: []listenerAction{
			{at: 1, kind: "write", path: "l2/step003"},
			{at: 15, kind: "delete", path: "l2/step003"}, // pending after one refusal
			{at: 32, kind: "write", path: "l2/step003"},
		},
	}
	got, want = sc.run(false), sc.run(true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cursor listener diverged from the reference:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Offered) != 3 || got.Submitted != 1 || got.Finished != 1 {
		t.Errorf("offered %v, submitted %d, finished %d; want three offers and one job", got.Offered, got.Submitted, got.Finished)
	}
}

// A poll that finds nothing new allocates nothing, however many files the
// tier holds.
func TestSteadyStateSweepAllocatesNothing(t *testing.T) {
	for _, files := range []int{200, 2000} {
		var sim des.Sim
		storage := fs.New(&sim, "lustre")
		for i := 0; i < files; i++ {
			storage.Write(fmt.Sprintf("l2/step%04d.gio", i), 1e6, 0, nil, nil)
		}
		sim.Run()
		c, _ := NewCluster(&sim, smallMachine())
		l := &Listener{Sim: &sim, FS: storage, Cluster: c, Prefix: "l2/", PollInterval: 30,
			MakeJob: func(path string, _ *fs.File) *Job { return &Job{Name: path, Nodes: 1, Duration: 10} }}
		l.FinalSweep()
		if l.Submitted != files || l.Unseen() != 0 {
			t.Fatalf("%d files: submitted %d, unseen %d", files, l.Submitted, l.Unseen())
		}
		if allocs := testing.AllocsPerRun(100, l.FinalSweep); allocs != 0 {
			t.Errorf("%d files: steady-state sweep allocates %v objects", files, allocs)
		}
	}
}
