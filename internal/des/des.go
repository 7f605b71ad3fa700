// Package des is a minimal discrete-event simulation core: a virtual clock
// and an event queue. The batch-scheduler, file-system and workflow models
// (internal/sched, internal/fs, internal/core) advance this clock instead
// of wall time, which lets the benchmark harness replay Titan-scale
// workflows — 16,384-node jobs, multi-hour analysis queues — in
// milliseconds while preserving every ordering the paper's measurements
// depend on.
package des

import "container/heap"

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now    float64
	queue  eventHeap
	serial int64 // tie-break so same-time events run in schedule order
	halted bool
}

type event struct {
	at     float64
	serial int64
	fn     func() // nil once its Timer was stopped
}

// Timer is a handle on one scheduled event, held by whoever armed it and
// stopped when the work it guards is over. The zero value's Stop is a no-op.
type Timer struct{ ev *event }

// Stop guarantees the event never runs: it will not advance the clock and
// Pending no longer counts it. Stopping an event that ran, is running (from
// inside its own callback) or was stopped already does nothing.
func (t Timer) Stop() {
	if t.ev != nil {
		t.ev.fn = nil
	}
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].serial < h[j].serial
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(v interface{}) { *h = append(*h, v.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute time t. Scheduling in the past runs the
// event at the current time (immediately next).
func (s *Sim) At(t float64, fn func()) Timer {
	if t < s.now {
		t = s.now
	}
	s.serial++
	ev := &event{at: t, serial: s.serial, fn: fn}
	heap.Push(&s.queue, ev)
	return Timer{ev}
}

// After schedules fn d seconds from now.
func (s *Sim) After(d float64, fn func()) Timer { return s.At(s.now+d, fn) }

// prune drops stopped events from the head of the queue, so that the head,
// if any, is the next event to run.
func (s *Sim) prune() {
	for s.queue.Len() > 0 && s.queue[0].fn == nil {
		heap.Pop(&s.queue)
	}
}

// Step runs the single earliest event, returning false when none remain.
func (s *Sim) Step() bool {
	s.prune()
	if s.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*event)
	s.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue drains or an event calls Halt.
func (s *Sim) Run() {
	for !s.halted && s.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t
// (if it is ahead of the last event). A Halt leaves the clock where the
// halting event ran.
func (s *Sim) RunUntil(t float64) {
	for s.prune(); !s.halted && s.queue.Len() > 0 && s.queue[0].at <= t; s.prune() {
		s.Step()
	}
	if !s.halted && s.now < t {
		s.now = t
	}
}

// Next returns the time of the next event to run; ok is false when none
// remain.
func (s *Sim) Next() (t float64, ok bool) {
	s.prune()
	if s.queue.Len() == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// Halt makes Run and RunUntil return once the current event finishes;
// queued events stay pending and the simulator stays halted. It is how a
// model reports, from inside an event, that the run cannot continue.
func (s *Sim) Halt() { s.halted = true }

// Pending reports the number of queued events that will still run.
func (s *Sim) Pending() int {
	n := 0
	for _, ev := range s.queue {
		if ev.fn != nil {
			n++
		}
	}
	return n
}
