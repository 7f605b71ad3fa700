package des

import (
	"testing"
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
