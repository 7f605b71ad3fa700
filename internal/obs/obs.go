// Package obs is the deterministic observability layer of the workflow
// stack: spans, metrics, and charge-policy cost accounting, all stamped
// with *simulated* time.
//
// The paper's central evaluation is cost accounting — it compares
// workflow variants by measured I/O, redistribution, queueing and
// analysis times priced under the Titan charge policy ("an hour per node
// leads to a charge of 30 core hours", Table 3). This package makes that
// accounting a first-class artifact of every run: the campaign engine,
// scheduler, supervisor, staging area and scrubber record spans
// (campaign → step → job → delivery → scrub) and metrics (counters,
// gauges, fixed-bucket histograms) against the discrete-event clock, and
// a CostReport prices the span categories in node-hours and core-hours
// under a pluggable ChargePolicy.
//
// Determinism contract: every timestamp comes from the injected Clock —
// the same injectable-clock pattern cosmotools and integrity use — never
// from the wall (workflowlint's dettaint analyzer enforces this: a
// wall-clock value reaching a span timestamp is a build error). Spans are
// recorded in Begin order, which on a discrete-event simulator is the
// deterministic event order; metrics encode in sorted-name order; trace
// JSON, span trees, metrics dumps and cost reports are therefore
// byte-identical across two runs of the same seed, the property CI pins
// with cmp, exactly like the supervision and scrub decision logs.
//
// No-op contract: a nil *Observer (and every nil handle it returns) is
// valid and inert, so instrumented code paths cost a nil check when
// observability is off. What an attached observer costs a campaign is
// measured by `go run ./bench`, per-layer metrics obs.overhead_ms and
// obs.overhead_allocs (recorded in bench/baseline.json).
//
// All Observer methods are safe for concurrent use: the staging area
// (internal/transit) feeds counters from consumer goroutines. Span
// *ordering* stays deterministic only for single-threaded (DES-driven)
// recording; concurrent recorders should restrict themselves to
// counters, whose totals are order-independent.
package obs

import (
	"fmt"
	"sync"
)

// Clock supplies the current virtual time in seconds. It is the ONLY
// sanctioned time source for spans and metrics: drivers inject the
// discrete-event simulator's Now (or any other deterministic clock).
type Clock func() float64

// Span is one timed operation. Fields are exported for export/report
// code; mutate only through the methods, which are nil-receiver safe.
type Span struct {
	// ID is the span's index in recording order; Parent is the enclosing
	// span's ID, or -1 for a root.
	ID, Parent int
	// Cat is the span taxonomy category (see DESIGN.md §13): "campaign",
	// "step", "job", "phase", "transit", "scrub", ...
	Cat string
	// Name identifies the operation within its category.
	Name string
	// Start and End are virtual seconds. open marks a span not yet ended;
	// finalize stamps it with the tracer's last known time.
	Start, End float64
	// Args are key=value annotations in append order (callers append in
	// deterministic order, so no sorting is needed or wanted).
	Args [][2]string
	// Machine and Nodes are the cost dimensions: a span holding Nodes
	// nodes on Machine for its duration is priced by ChargePolicy. Zero
	// Nodes (queue waits, transit deliveries) contributes wall time but
	// no charge.
	Machine string
	Nodes   int

	open bool
	obs  *Observer
}

// Observer records spans and metrics against an injected clock. The zero
// value is not usable; build one with New. A nil *Observer is valid and
// inert everywhere.
type Observer struct {
	mu    sync.Mutex
	name  string
	clock Clock
	spans []*Span
	reg   *Registry
}

// New builds an observer. name labels the trace (the Chrome trace
// process name). clock may be nil if SetClock is called before the first
// span — the campaign engine injects its DES clock at setup time.
func New(name string, clock Clock) *Observer {
	return &Observer{name: name, clock: clock, reg: NewRegistry()}
}

// Name returns the observer's label ("" when nil).
func (o *Observer) Name() string {
	if o == nil {
		return ""
	}
	return o.name
}

// SetClock injects the virtual time source (the engine's sim.Now). It is
// how the campaign engine hands its clock to an observer created before
// the simulator exists. Nil-safe.
func (o *Observer) SetClock(c Clock) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.clock = c
	o.mu.Unlock()
}

// now reads the clock under the lock (0 before any clock is set).
func (o *Observer) now() float64 {
	if o.clock == nil {
		return 0
	}
	return o.clock()
}

// Metrics returns the observer's registry (nil when the observer is nil,
// and a nil *Registry is itself inert).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Begin opens a root span at the current virtual time.
func (o *Observer) Begin(cat, name string) *Span { return o.beginAt(nil, cat, name, -1, true) }

// BeginAt opens a root span at an explicit virtual time t (useful when
// the span logically started before the callback observing it ran).
func (o *Observer) BeginAt(cat, name string, t float64) *Span {
	return o.beginAt(nil, cat, name, t, false)
}

// BeginUnder opens a span nested under parent at the current virtual
// time. A nil parent makes a root span.
func (o *Observer) BeginUnder(parent *Span, cat, name string) *Span {
	return o.beginAt(parent, cat, name, -1, true)
}

// SpanAt records a complete retroactive span [start, end] under parent
// (nil parent: root). The workflow runners use it to lay down phase
// spans whose durations come from the calibrated cost model rather than
// from bracketing live code.
func (o *Observer) SpanAt(parent *Span, cat, name string, start, end float64) *Span {
	sp := o.beginAt(parent, cat, name, start, false)
	sp.EndAt(end)
	return sp
}

func (o *Observer) beginAt(parent *Span, cat, name string, t float64, useClock bool) *Span {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if useClock {
		t = o.now()
	}
	pid := -1
	if parent != nil {
		pid = parent.ID
	}
	sp := &Span{ID: len(o.spans), Parent: pid, Cat: cat, Name: name, Start: t, End: t, open: true, obs: o}
	o.spans = append(o.spans, sp)
	return sp
}

// Done closes the span at the current virtual time. Nil-safe; ending a
// closed span is a no-op.
func (sp *Span) Done() {
	if sp == nil {
		return
	}
	sp.obs.mu.Lock()
	defer sp.obs.mu.Unlock()
	if !sp.open {
		return
	}
	sp.open = false
	sp.endLocked(sp.obs.now())
}

// EndAt closes the span at an explicit virtual time.
func (sp *Span) EndAt(t float64) {
	if sp == nil {
		return
	}
	sp.obs.mu.Lock()
	defer sp.obs.mu.Unlock()
	if !sp.open {
		return
	}
	sp.open = false
	sp.endLocked(t)
}

// endLocked stamps the end time, clamped so spans never run backwards.
// Caller holds the observer lock.
func (sp *Span) endLocked(t float64) {
	if t < sp.Start {
		t = sp.Start
	}
	sp.End = t
}

// Arg annotates the span with a key=value pair. Append order is the
// caller's (deterministic) order.
func (sp *Span) Arg(key, value string) *Span {
	if sp == nil {
		return nil
	}
	sp.obs.mu.Lock()
	sp.Args = append(sp.Args, [2]string{key, value})
	sp.obs.mu.Unlock()
	return sp
}

// ArgF annotates the span with a float value (formatted %g, which is
// deterministic for a given float64).
func (sp *Span) ArgF(key string, v float64) *Span { return sp.Arg(key, fmt.Sprintf("%g", v)) }

// Charge sets the span's cost dimensions: nodes held on machine for the
// span's duration. The CostReport prices duration × nodes under the
// policy's per-machine factor.
func (sp *Span) Charge(machine string, nodes int) *Span {
	if sp == nil {
		return nil
	}
	sp.obs.mu.Lock()
	sp.Machine, sp.Nodes = machine, nodes
	sp.obs.mu.Unlock()
	return sp
}

// Duration returns End-Start (0 for nil).
func (sp *Span) Duration() float64 {
	if sp == nil {
		return 0
	}
	return sp.End - sp.Start
}

// Spans returns the recorded spans in recording order, first closing any
// still-open span at the current virtual time. The returned slice is the
// observer's own (callers must not mutate).
func (o *Observer) Spans() []*Span {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.now()
	for _, sp := range o.spans {
		if sp.open {
			sp.open = false
			sp.endLocked(now)
		}
	}
	return o.spans
}
