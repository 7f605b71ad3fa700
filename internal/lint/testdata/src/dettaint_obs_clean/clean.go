// Clean fixtures for dettaint's obs sinks: timestamps drawn from the
// injected simulation clock, and the sanctioned clock-injection points
// themselves.
package sim

import (
	"time"

	"obsstub"
)

// The DES pattern: the engine injects its virtual clock, and every
// timestamp is a draw from that injected function — deterministic by
// construction.
func wire(o *obs.Observer, simNow func() float64) {
	o.SetClock(simNow)
	sp := o.SpanAt(nil, "job", "j", simNow(), simNow()+5)
	sp.EndAt(simNow() + 10)
}

// Passing time.Now as the *clock function* (not a sampled value) is the
// sanctioned injection point for callers outside the simulation: the
// function reference itself carries no taint.
func wireWall() *obs.Observer {
	o := obs.New("live", nil)
	o.SetClock(func() float64 { return float64(time.Now().UnixNano()) / 1e9 })
	return o
}

// Durations from time.Since are telemetry, sanitized as in the product
// write rules.
func telemetry(o *obs.Observer, started time.Time) {
	d := time.Since(started).Seconds()
	o.SpanAt(nil, "step", "s", 0, d)
}
