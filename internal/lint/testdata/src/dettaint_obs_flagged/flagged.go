// Flagged fixtures for dettaint's obs sinks: sampled wall-clock values
// reaching span timestamps, directly and through helpers.
package sim

import (
	"time"

	"obsstub"
)

// A wall-clock sample flowing straight into a span's start and end.
func traceStep(o *obs.Observer) {
	t := float64(time.Now().UnixNano()) / 1e9
	sp := o.SpanAt(nil, "step", "step-001", t, 0) // want `nondeterministic value from time\.Now reaches obs\.SpanAt \(time arg 3\)`
	sp.EndAt(t + 1)                               // want `nondeterministic value from time\.Now reaches obs\.EndAt \(time arg 0\)`
}

// wallSeconds carries the taint through a helper; the summary makes the
// caller's SpanAt site the finding — on both timestamp operands.
func wallSeconds() float64 {
	return float64(time.Now().Unix())
}

func retroSpan(o *obs.Observer) {
	w := wallSeconds()
	o.SpanAt(nil, "job", "j1", w, w+5) // want `nondeterministic value from time\.Now reaches obs\.SpanAt \(time arg 3\)` `nondeterministic value from time\.Now reaches obs\.SpanAt \(time arg 4\)`
}
