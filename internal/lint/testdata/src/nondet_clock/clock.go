// Injectable-clock fixture: the sanctioned replacement for wall-clock
// reads whose values reach results. A deterministic package takes the
// clock as a nil-able field — nil means "no timings" and the output stays
// a pure function of the inputs; drivers that want real timings assign
// time.Now at the edge.
package cosmotools

import "time"

// Manager is the pattern in its smallest form: timings are recorded only
// when a clock was injected.
type Manager struct {
	Clock   func() time.Time
	Timings map[string]time.Duration
}

func (m *Manager) Execute(name string, work func()) {
	var start time.Time
	if m.Clock != nil {
		start = m.Clock()
	}
	work()
	if m.Clock != nil {
		if m.Timings == nil {
			m.Timings = map[string]time.Duration{}
		}
		m.Timings[name] += m.Clock().Sub(start)
	}
}

// Referencing time.Now as a function value to inject it is fine — only
// calls inside the deterministic package are wall-clock reads.
func NewTimedManager() *Manager {
	return &Manager{Clock: time.Now}
}

// The pattern being replaced: an argless time.Now call whose value lands
// in results is still flagged.
func (m *Manager) stampResult() time.Time {
	return time.Now() // want `time.Now in deterministic package "cosmotools" may reach results`
}
