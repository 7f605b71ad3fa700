package supervise

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

// beatUntil models a job that beats its heart on the interval grid until
// virtual time horizon, then goes silent — the stall signature.
func beatUntil(sim *des.Sim, start, interval, horizon float64) func() float64 {
	return func() float64 {
		now := sim.Now()
		if now > horizon {
			now = horizon
		}
		if now <= start {
			return start
		}
		return start + math.Floor((now-start)/interval)*interval
	}
}

func TestHealthyJobNeverSuspected(t *testing.T) {
	sim := &des.Sim{}
	sv := New(sim, DefaultPolicy())
	var got []Reason
	hb := beatUntil(sim, 0, 30, math.Inf(1))
	sv.Watch("sim#0", 600, hb, func(r Reason) { got = append(got, r) })
	sim.At(600, func() { sv.Done("sim#0") })
	sim.Run()
	if len(got) != 0 {
		t.Errorf("healthy job suspected: %v", got)
	}
	if len(sv.tasks) != 0 {
		t.Errorf("still watching %d after Done", len(sv.tasks))
	}
	if sv.Suspects != 0 {
		t.Errorf("Suspects = %d", sv.Suspects)
	}
}

func TestStalledJobSuspectedByHeartbeat(t *testing.T) {
	sim := &des.Sim{}
	sv := New(sim, DefaultPolicy())
	var got []Reason
	var at float64
	// Beats stop at t=300; the job never completes.
	sv.Watch("sim#0", 10000, beatUntil(sim, 0, 30, 300), func(r Reason) {
		got = append(got, r)
		at = sim.Now()
	})
	sim.Run()
	if len(got) != 1 || got[0] != ReasonHeartbeatMissed {
		t.Fatalf("reasons = %v, want one heartbeat-missed", got)
	}
	// Suspect within one miss window (90 s) of the last beat, and not before.
	if at < 390 || at > 480 {
		t.Errorf("suspected at t=%v, want within [390, 480]", at)
	}
	if sv.Suspects != 1 {
		t.Errorf("Suspects = %d", sv.Suspects)
	}
}

func TestDeadlineCatchesSlowButBeatingJob(t *testing.T) {
	sim := &des.Sim{}
	sv := New(sim, DefaultPolicy())
	var got []Reason
	var at float64
	// Beats forever but never completes: only the deadline can catch it,
	// at 4x the expected 100 s plus 120 s of slack.
	sv.Watch("sim#0", 100, beatUntil(sim, 0, 30, math.Inf(1)), func(r Reason) {
		got = append(got, r)
		at = sim.Now()
	})
	sim.RunUntil(2000)
	if len(got) != 1 || got[0] != ReasonDeadlineExceeded || at != 520 {
		t.Fatalf("reasons = %v at t=%v, want one deadline-exceeded at 520", got, at)
	}
}

func TestStragglerDetectedAgainstPopulation(t *testing.T) {
	sim := &des.Sim{}
	sv := New(sim, DefaultPolicy())
	// Six peers complete on time, seeding the ratio population.
	for i := 0; i < 6; i++ {
		name := string(rune('a' + i))
		sv.Watch(name, 100, beatUntil(sim, 0, 30, math.Inf(1)), nil)
		sv.Done(name)
	}
	var got []Reason
	var at float64
	// The straggler beats forever; expected 100 s, deadline would fire at
	// 4x100+120 = 520 s, but the straggler test trips at ratio > 3.
	sv.Watch("lag", 100, beatUntil(sim, 0, 30, math.Inf(1)), func(r Reason) {
		got = append(got, r)
		at = sim.Now()
	})
	sim.RunUntil(519)
	if len(got) != 1 || got[0] != ReasonStraggler {
		t.Fatalf("reasons = %v, want one straggler before the deadline", got)
	}
	if at <= 300 || at >= 520 {
		t.Errorf("straggler declared at t=%v, want in (300, 520)", at)
	}
}

// A heartbeat frozen at any time is suspected on the poll at last+window,
// whatever rounding makes of (last+window)-last: a watchdog that tests one
// expression and re-arms at another re-arms at the current instant forever
// for about half of these draws.
func TestFrozenHeartbeatIsSuspectedNotRepolled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for draw := 0; draw < 1000; draw++ {
		sim := &des.Sim{}
		sv := New(sim, DefaultPolicy())
		last := rng.Float64() * 1e5
		suspects := 0
		sv.Watch("j", 1e9, func() float64 { return last }, func(Reason) { suspects++ })
		steps := 0
		for sim.Pending() > 0 && steps < 10 {
			sim.Step()
			steps++
		}
		if suspects != 1 || sim.Pending() != 0 || sim.Now() != last+90 {
			t.Fatalf("last beat %v: %d suspects, %d events pending at t=%v after %d steps; want 1, 0 at %v",
				last, suspects, sim.Pending(), sim.Now(), steps, last+90)
		}
	}
}

func TestDoneAndForgetDisarmPendingEvents(t *testing.T) {
	sim := &des.Sim{}
	sv := New(sim, DefaultPolicy())
	fired := 0
	sv.Watch("a", 10, nil, func(Reason) { fired++ }) // nil heartbeat: started time stands in
	sv.Done("a")
	sv.Watch("b", 10, nil, func(Reason) { fired++ })
	sv.Forget("b")
	if n := sim.Pending(); n != 0 {
		t.Errorf("%d events pending for two resolved watches, want 0", n)
	}
	// Re-watching a live name replaces the old watch.
	sv.Watch("c", 10, beatUntil(sim, 0, 30, math.Inf(1)), func(Reason) { fired++ })
	sim.At(1, func() {
		sv.Watch("c", 1e6, beatUntil(sim, 1, 30, math.Inf(1)), nil)
	})
	sim.RunUntil(5000)
	if fired != 0 {
		t.Errorf("%d suspect callbacks fired for resolved/replaced watches", fired)
	}
}

func TestDecisionLogIsDeterministic(t *testing.T) {
	run := func() []Decision {
		sim := &des.Sim{}
		sv := New(sim, DefaultPolicy())
		sv.Watch("sim#0", 500, beatUntil(sim, 0, 30, 200), func(Reason) {
			sv.Note("sim#0", "hedge", "backup launched")
		})
		sv.Watch("post#0", 100, beatUntil(sim, 0, 30, math.Inf(1)), nil)
		sim.At(100, func() { sv.Done("post#0") })
		sim.RunUntil(3000)
		return sv.Decisions()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("decision logs differ:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no decisions recorded")
	}
	var sawSuspect, sawHedge bool
	for _, d := range a {
		if d.Event == "suspect" && strings.Contains(d.Note, string(ReasonHeartbeatMissed)) {
			sawSuspect = true
		}
		if d.Event == "hedge" {
			sawHedge = true
		}
	}
	if !sawSuspect || !sawHedge {
		t.Errorf("log missing suspect/hedge entries: %v", a)
	}
}

func TestNilSupervisorIsInert(t *testing.T) {
	var sv *Supervisor
	sv.Watch("a", 10, nil, nil)
	sv.Done("a")
	sv.Forget("a")
	sv.Note("a", "x", "y")
	if sv.Decisions() != nil {
		t.Error("nil supervisor not inert")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p, want float64
	}{{0.5, 5}, {0.95, 10}, {0.05, 1}, {1, 10}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// The straggler population kept ascending by Done gives, after every
// completion, the percentiles that copying and sorting the completion-order
// stream gave — on streams full of duplicate and zero ratios.
func TestSortedPopulationMatchesCopyAndSort(t *testing.T) {
	copyAndSort := func(xs []float64, p float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		i := int(p*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sim des.Sim
		sv := New(&sim, DefaultPolicy())
		var stream []float64
		for i := 1 + rng.Intn(80); i > 0; i-- {
			name := fmt.Sprintf("t%d", i)
			expected, ran := float64(10*(1+rng.Intn(3))), float64(5*rng.Intn(9))
			sv.Watch(name, expected, nil, nil)
			sim.RunUntil(sim.Now() + ran) // short of the first watchdog poll
			sv.Done(name)
			stream = append(stream, ran/expected)
			for _, p := range []float64{0.01, 0.05, 0.5, 0.95, 1} {
				if got, want := percentile(sv.doneRatios, p), copyAndSort(stream, p); got != want {
					t.Logf("seed %d: p%v of %v = %v, want %v", seed, p*100, stream, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(16))}); err != nil {
		t.Error(err)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	now := 0.0
	b := NewBreaker(func() float64 { return now })
	// Closed: allows; failures below threshold keep it closed.
	if !b.Allow() {
		t.Fatal("closed breaker refused")
	}
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	// Third consecutive failure opens it.
	b.Failure()
	if b.State() != BreakerOpen || b.Opens != 1 {
		t.Fatalf("state %v opens %d after threshold", b.State(), b.Opens)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed")
	}
	if b.Skips != 1 {
		t.Errorf("Skips = %d", b.Skips)
	}
	// Cooldown elapses: half-open passes exactly one probe.
	now = 60
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after cooldown", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open allowed a second concurrent probe")
	}
	// Probe fails: reopen with doubled cooldown.
	b.Failure()
	if b.State() != BreakerOpen || b.Opens != 2 {
		t.Fatalf("state %v opens %d after failed probe", b.State(), b.Opens)
	}
	now = 119 // 60 + 59 < doubled 120 s cooldown
	if b.State() != BreakerOpen {
		t.Fatal("reopened breaker half-opened before doubled cooldown")
	}
	now = 180
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	// Probe succeeds: closed, ladder reset.
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probe", b.State())
	}
	// Reopening after the reset uses the base cooldown again.
	b.Failure()
	b.Failure()
	b.Failure()
	now = 180 + 60
	if b.State() != BreakerHalfOpen {
		t.Error("cooldown ladder not reset by success")
	}
}

func TestBreakerCooldownCap(t *testing.T) {
	now := 0.0
	b := NewBreaker(func() float64 { return now })
	b.Failure()
	b.Failure()
	b.Failure()
	// Fail every probe: the cooldown doubles 60, 120, 240, 480 and then
	// stays at the 480 s cap. Each one is read off the clock: the breaker
	// still refuses a second before it ends and lets a probe through at it.
	for i, want := range []float64{60, 120, 240, 480, 480, 480, 480} {
		now += want - 1
		if b.Allow() {
			t.Fatalf("open %d: probe allowed after %v s, want a %v s cooldown", i, want-1, want)
		}
		now++
		if !b.Allow() {
			t.Fatalf("open %d: probe refused after %v s, want a %v s cooldown", i, want, want)
		}
		b.Failure()
	}
}

func TestNilBreakerAllowsEverything(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Error("nil breaker refused")
	}
	b.Success()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Error("nil breaker not closed")
	}
}
