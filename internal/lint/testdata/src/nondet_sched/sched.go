// Scope fixture for the widened deterministic table: package sched's
// output is the decision log CI byte-compares, so a listener that
// reports its seen-set in map order is flagged, and the sorted form is
// clean.
package sched

import "sort"

type Listener struct {
	seen map[string]bool
}

func (l *Listener) Pending() []string {
	var out []string
	for name := range l.seen { // want `map iteration appends to "out"`
		out = append(out, name)
	}
	return out
}

func (l *Listener) PendingSorted() []string {
	out := make([]string, 0, len(l.seen))
	for name := range l.seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
