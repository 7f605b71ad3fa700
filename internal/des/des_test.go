package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var s Sim
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Errorf("now = %v", s.Now())
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	var s Sim
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	var s Sim
	var fired float64
	s.At(10, func() {
		s.After(5, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 15 {
		t.Errorf("fired at %v", fired)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	var s Sim
	var fired float64 = -1
	s.At(10, func() {
		s.At(3, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 10 {
		t.Errorf("fired at %v", fired)
	}
}

func TestEventsCanScheduleMoreEvents(t *testing.T) {
	var s Sim
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	s.Run()
	if count != 100 {
		t.Errorf("count = %d", count)
	}
	if s.Now() != 100 {
		t.Errorf("now = %v", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	var s Sim
	var fired []float64
	for _, at := range []float64{1, 2, 3, 10} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(5)
	if len(fired) != 3 {
		t.Errorf("fired = %v", fired)
	}
	if s.Now() != 5 {
		t.Errorf("now = %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	s.Run()
	if len(fired) != 4 || s.Now() != 10 {
		t.Errorf("final: fired=%v now=%v", fired, s.Now())
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	var s Sim
	if s.Step() {
		t.Error("Step on empty queue should return false")
	}
}

// Halt stops Run and RunUntil after the halting event: later events stay
// queued and the clock stays at the halting event's time.
func TestHaltStopsTheLoop(t *testing.T) {
	for _, until := range []float64{0, 5} {
		var s Sim
		fired := 0
		s.At(1, func() { fired++ })
		s.At(2, func() { fired++; s.Halt() })
		s.At(3, func() { fired++ })
		if until > 0 {
			s.RunUntil(until)
		} else {
			s.Run()
		}
		if fired != 2 || s.Pending() != 1 || s.Now() != 2 {
			t.Errorf("until=%v: fired=%d pending=%d now=%v, want 2, 1, 2", until, fired, s.Pending(), s.Now())
		}
	}
}

// A stopped timer's event never runs, never advances the clock and is not
// pending; Stop on a fired, stopped or zero Timer does nothing.
func TestTimerStop(t *testing.T) {
	for _, tc := range []struct {
		name string
		// script schedules on s; fired counts the events that ran.
		script      func(s *Sim, fired *int)
		until       float64 // > 0: RunUntil instead of Run
		pending     int     // Pending after the script, before the run
		fired       int
		now         float64
		pendingLeft int
	}{
		{name: "before fire", pending: 1, fired: 1, now: 1,
			script: func(s *Sim, fired *int) {
				s.At(1, func() { *fired++ })
				s.At(9, func() { *fired++ }).Stop()
			}},
		{name: "after fire", pending: 0, fired: 2, now: 2,
			script: func(s *Sim, fired *int) {
				tm := s.At(1, func() { *fired++ })
				s.Run()
				tm.Stop()
				s.At(2, func() { *fired++ })
				s.Run()
			}},
		{name: "twice", pending: 1, fired: 1, now: 3,
			script: func(s *Sim, fired *int) {
				tm := s.At(2, func() { *fired++ })
				tm.Stop()
				tm.Stop()
				s.At(3, func() { *fired++ })
			}},
		{name: "zero value", pending: 1, fired: 1, now: 1,
			script: func(s *Sim, fired *int) {
				Timer{}.Stop()
				s.At(1, func() { *fired++ })
			}},
		{name: "inside its own callback", pending: 1, fired: 2, now: 2,
			script: func(s *Sim, fired *int) {
				var tm Timer
				tm = s.At(1, func() {
					tm.Stop()
					*fired++
					s.At(2, func() { *fired++ })
				})
			}},
		{name: "a later event, from a callback", pending: 2, fired: 1, now: 1,
			script: func(s *Sim, fired *int) {
				tm := s.At(5, func() { *fired++ })
				s.At(1, func() { *fired++; tm.Stop() })
			}},
		{name: "the head event under RunUntil", until: 5, pending: 2, fired: 1, now: 5, pendingLeft: 1,
			script: func(s *Sim, fired *int) {
				s.At(1, func() { *fired++ }).Stop()
				s.At(2, func() { *fired++ })
				s.At(4, func() { *fired++ }).Stop()
				s.At(7, func() { *fired++ })
			}},
		{name: "every event", until: 5, pending: 0, fired: 0, now: 5,
			script: func(s *Sim, fired *int) {
				s.At(1, func() { *fired++ }).Stop()
				s.After(2, func() { *fired++ }).Stop()
			}},
	} {
		var s Sim
		fired := 0
		tc.script(&s, &fired)
		if got := s.Pending(); got != tc.pending {
			t.Errorf("%s: Pending = %d before the run, want %d", tc.name, got, tc.pending)
		}
		if tc.until > 0 {
			s.RunUntil(tc.until)
		} else {
			s.Run()
		}
		if fired != tc.fired || s.Now() != tc.now || s.Pending() != tc.pendingLeft {
			t.Errorf("%s: fired=%d now=%v pending=%d, want %d, %v, %d",
				tc.name, fired, s.Now(), s.Pending(), tc.fired, tc.now, tc.pendingLeft)
		}
		if s.Step() != (tc.pendingLeft > 0) {
			t.Errorf("%s: Step disagrees with Pending = %d", tc.name, tc.pendingLeft)
		}
	}
}

// refQueue is the reference the heap is compared against: every event ever
// scheduled in a slice, and the next one to run found by sorting the live
// ones by (time, schedule order).
type refQueue struct {
	now    float64
	events []*refEvent
}

type refEvent struct {
	at        float64
	id        int
	run, dead bool
}

func (q *refQueue) at(t float64, id int) *refEvent {
	ev := &refEvent{at: max(t, q.now), id: id}
	q.events = append(q.events, ev)
	return ev
}

// step returns the id of the event that runs next (-1: none).
func (q *refQueue) step() int {
	var live []*refEvent
	for _, ev := range q.events {
		if !ev.run && !ev.dead {
			live = append(live, ev)
		}
	}
	if len(live) == 0 {
		return -1
	}
	sort.SliceStable(live, func(i, j int) bool { return live[i].at < live[j].at })
	live[0].run, q.now = true, live[0].at
	return live[0].id
}

// Random scripts of At, After and Stop — issued up front and from inside
// running events — give the same run order and the same clock at every
// step as the sort-based reference: survivors keep their (time, schedule
// order), and the clock only ever lands on the time of an event that ran.
func TestTimerMatchesReferenceQueue(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sim
		ref := &refQueue{}
		var timers []Timer
		var refs []*refEvent
		var order []int
		var clock []float64
		var act func(n int)
		schedule := func() {
			id := len(timers)
			fn := func() {
				order = append(order, id)
				clock = append(clock, s.Now())
				act(rng.Intn(4))
			}
			// Few distinct times, so ties and the past are common.
			d := float64(rng.Intn(8))
			if rng.Intn(2) == 0 {
				timers = append(timers, s.After(d, fn))
				refs = append(refs, ref.at(ref.now+d, id))
			} else {
				timers = append(timers, s.At(d, fn))
				refs = append(refs, ref.at(d, id))
			}
		}
		act = func(n int) {
			for ; n > 0 && len(timers) < 200; n-- {
				if len(timers) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(timers)) // may have run, or be running
					timers[i].Stop()
					refs[i].dead = true
					continue
				}
				schedule()
			}
		}
		act(5 + rng.Intn(20))
		for step := 0; ; step++ {
			pending := 0
			for _, ev := range ref.events {
				if !ev.run && !ev.dead {
					pending++
				}
			}
			if s.Pending() != pending {
				t.Logf("seed %d, step %d: Pending = %d, reference %d", seed, step, s.Pending(), pending)
				return false
			}
			ran := len(order)
			want := ref.step() // before Step: the event's callback mutates ref
			if !s.Step() {
				return want == -1
			}
			if want == -1 || order[ran] != want || clock[ran] != ref.now {
				t.Logf("seed %d, step %d: ran event %d at %v, reference %d at %v", seed, step, order[ran], clock[ran], want, ref.now)
				return false
			}
		}
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
