package ckpt

import "fmt"

// Manifest is the state a journal replay converges to: which steps have
// committed products, which analyses are done, whether a merged catalog
// exists, and how many times the campaign process has started.
type Manifest struct {
	// Meta is the campaign identity record (nil before the first run).
	Meta *Record
	// Generation counts prior process incarnations (run records).
	Generation int
	// Steps maps a 1-based timestep to its committed Level 2 record.
	Steps map[int]Record
	// Posts maps a 1-based timestep to its completed analysis record.
	Posts map[int]Record
	// Merge is the last committed merged-catalog record (nil if none).
	Merge *Record
}

// Replay folds journal records into a manifest. Later records supersede
// earlier ones for the same step, so re-committing after a partial redo
// is harmless.
func Replay(records []Record) *Manifest {
	m := &Manifest{
		Steps: map[int]Record{},
		Posts: map[int]Record{},
	}
	for _, r := range records {
		switch r.Kind {
		case KindMeta:
			rc := r
			m.Meta = &rc
		case KindRun:
			m.Generation++
		case KindStep:
			m.Steps[r.Step] = r
		case KindPost:
			m.Posts[r.Step] = r
		case KindMerge:
			rc := r
			m.Merge = &rc
		}
	}
	return m
}

// CompletedSteps returns the highest step k such that steps 1..k all have
// committed products — the point the simulation restarts from. The
// engine commits steps in order, so gaps only arise from journal damage;
// restarting from the contiguous prefix stays correct either way.
func (m *Manifest) CompletedSteps() int {
	k := 0
	for m.Steps[k+1].Kind != "" {
		k++
	}
	return k
}

// CheckMeta validates that the journal belongs to the same campaign the
// caller is about to run: same scenario, horizon, and seeds. Resuming a
// journal under different parameters would silently mix incompatible
// products, so it is an error.
func (m *Manifest) CheckMeta(name string, timesteps int, seed, faultSeed int64) error {
	if m.Meta == nil {
		return nil // fresh journal
	}
	w := m.Meta
	if w.Name != name || w.Timesteps != timesteps || w.Seed != seed || w.FaultSeed != faultSeed {
		return fmt.Errorf("ckpt: journal is for campaign %q (%d steps, seed %d, fault seed %d); refusing to resume as %q (%d steps, seed %d, fault seed %d)",
			w.Name, w.Timesteps, w.Seed, w.FaultSeed, name, timesteps, seed, faultSeed)
	}
	return nil
}
