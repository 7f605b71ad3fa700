// Package obs is a fixture stub of the observability layer: dettaint
// matches its span methods by package name and method (EndAt, SpanAt) to
// keep wall-clock taint out of trace timestamps. Imported by other
// fixtures as `import "obsstub"`.
package obs

// Clock yields the current simulated time in seconds.
type Clock func() float64

// Observer records spans against an injected clock.
type Observer struct {
	clock Clock
}

// New returns an observer; passing time-derived *functions* here is the
// sanctioned injection point (the engine wires the DES clock).
func New(name string, clock Clock) *Observer { return &Observer{clock: clock} }

// SetClock injects the time source.
func (o *Observer) SetClock(c Clock) {
	if o != nil {
		o.clock = c
	}
}

// Span is one timed interval.
type Span struct {
	Start, End float64
}

// SpanAt records a retroactive complete span (timestamps are sinks).
func (o *Observer) SpanAt(parent *Span, cat, name string, start, end float64) *Span {
	return &Span{Start: start, End: end}
}

// EndAt closes the span at an explicit timestamp (a dettaint sink).
func (sp *Span) EndAt(t float64) {
	if sp != nil {
		sp.End = t
	}
}

// Done closes the span at the observer clock (no explicit timestamp).
func (sp *Span) Done() {}
