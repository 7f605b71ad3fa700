package sched

import "slices"

// Pending is the listener's decision state, the one rule both the modelled
// Listener and the real daemon (cmd/listener) drive: the watched paths
// that landed and are not yet seen, in lexicographic order, and the seen
// set. It has no clock and no storage; the caller reports landings and
// decides each offer. The zero value is empty and allocates nothing until
// a path is added or seen.
type Pending struct {
	seen  map[string]bool
	paths []string
}

// Offer is what a sweep's offer made of one pending path.
type Offer uint8

const (
	Keep Offer = iota // still pending: the next sweep offers it again
	Drop              // leaves pending unseen: a later landing brings it back
	Take              // leaves pending, seen: offered again only after Requeue
)

// Add files a landed path as pending unless it is seen or already pending.
func (p *Pending) Add(path string) {
	if i, found := slices.BinarySearch(p.paths, path); !found && !p.seen[path] {
		p.paths = slices.Insert(p.paths, i, path)
	}
}

// MarkSeen marks path seen and removes it from the pending set.
func (p *Pending) MarkSeen(path string) {
	p.see(path)
	if i, found := slices.BinarySearch(p.paths, path); found {
		p.paths = slices.Delete(p.paths, i, i+1)
	}
}

// Requeue returns a seen path to the pending set (a failed job, in the
// real daemon), so the next sweep offers it again.
func (p *Pending) Requeue(path string) {
	delete(p.seen, path)
	p.Add(path)
}

// Seen reports whether path was taken or marked seen.
func (p *Pending) Seen(path string) bool { return p.seen[path] }

// Len counts the pending paths.
func (p *Pending) Len() int { return len(p.paths) }

// Sweep offers every pending path in lexicographic order and files it by
// the verdict. The order is kept on purpose: submission order numbers the
// analysis jobs, and landing order differs from it whenever a write is
// re-driven or an outage lets files pile up. offer must not call into p.
func (p *Pending) Sweep(offer func(path string) Offer) {
	kept := p.paths[:0]
	for _, path := range p.paths {
		switch offer(path) {
		case Keep:
			kept = append(kept, path)
		case Take:
			p.see(path)
		}
	}
	p.paths = kept
}

func (p *Pending) see(path string) {
	if p.seen == nil {
		p.seen = map[string]bool{}
	}
	p.seen[path] = true
}
