// Package fs models the shared storage tiers of the paper's workflows on
// the virtual clock: the parallel file system that Level 1/Level 2 data
// passes through, and the external shared-memory staging area (NVRAM /
// burst buffer) of the hypothetical in-transit variant — "the data is now
// stored on a separate memory device ... connected to both the main HPC
// system as well as the analysis cluster" (§4.2).
//
// The package tracks only visibility and sizes; transfer durations are
// computed by the caller from the machine models (internal/platform), so
// one System instance can sit between clusters with different bandwidths.
//
// A tier is polled far more often than it is written ("at a rate much
// higher than the rate at which the main code generates new output files",
// §3.2), so both of a poller's questions are answered without scanning:
// every landing is appended to an arrival log a reader drains from its own
// cursor (Arrivals — a poll that finds nothing costs O(1)), and the files
// are also kept sorted by path, so List is a binary search plus a copy of
// one prefix range.
package fs

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/des"
	"repro/internal/fault"
)

// ErrWriteFailed reports a write that errored outright: no file landed.
var ErrWriteFailed = errors.New("fs: write failed")

// File is one stored object.
type File struct {
	// Path names the file.
	Path string
	// Bytes is the payload size.
	Bytes float64
	// VisibleAt is the virtual time the write completed; the file cannot
	// be listed or read before then.
	VisibleAt float64
	// Payload optionally carries the in-memory data product the file
	// represents (the workflow engine hands halo particle sets through
	// here instead of re-serializing them).
	Payload any
	// Corrupt marks a file whose bytes rotted at rest: its size and
	// visibility are unchanged (silent corruption trips no length check),
	// only end-to-end verification notices.
	Corrupt bool
}

// System is one storage tier on a discrete-event clock.
type System struct {
	sim  *des.Sim
	name string
	// files holds the resident files in path order (a lookup is a binary
	// search, List a prefix range); arrivals logs the path of every
	// landing, in landing order, and only grows.
	files    []*File
	arrivals []string
	faults   *fault.Injector
	writeSeq map[string]int

	// Fault counters (zero under a nil injector).
	WriteFailures   int
	TruncatedWrites int
	// Corruptions counts files marked corrupt at rest (see Corrupt).
	Corruptions int
}

// New creates a storage tier bound to the simulation clock.
func New(sim *des.Sim, name string) *System {
	return &System{sim: sim, name: name, writeSeq: map[string]int{}}
}

// Name identifies the tier ("lustre", "burst-buffer", ...).
func (s *System) Name() string { return s.name }

// SetFaults attaches a fault injector: writes may then fail outright or
// land silently truncated. A nil injector restores the failure-free tier.
func (s *System) SetFaults(inj *fault.Injector) { s.faults = inj }

// Write starts writing a file that takes duration seconds to land; done
// (if non-nil) fires when the write attempt resolves, whether or not the
// file landed (legacy interface — use WriteChecked to observe failures).
// Overwrites replace the old file at completion.
func (s *System) Write(path string, bytes, duration float64, payload any, done func()) {
	s.WriteChecked(path, bytes, duration, payload, func(error) {
		if done != nil {
			done()
		}
	})
}

// WriteChecked starts writing a file that takes duration seconds to land;
// done (if non-nil) fires when the attempt resolves. Under an attached
// fault injector the write may fail outright (done receives ErrWriteFailed
// and no file lands) or land silently truncated (done receives nil and
// only a size check — VerifySize — catches the short file). Each attempt
// at the same path draws an independent fault outcome, so re-driving a
// failed write can succeed.
func (s *System) WriteChecked(path string, bytes, duration float64, payload any, done func(error)) {
	attempt := s.writeSeq[path]
	s.writeSeq[path]++
	outcome, frac := s.faults.Write(s.name+":"+path, attempt)
	completeAt := s.sim.Now() + duration
	s.sim.After(duration, func() {
		switch outcome {
		case fault.WriteFail:
			s.WriteFailures++
			if done != nil {
				done(ErrWriteFailed)
			}
		case fault.WriteTruncate:
			s.TruncatedWrites++
			s.land(&File{Path: path, Bytes: bytes * frac, VisibleAt: completeAt, Payload: payload})
			if done != nil {
				done(nil)
			}
		default:
			s.land(&File{Path: path, Bytes: bytes, VisibleAt: completeAt, Payload: payload})
			if done != nil {
				done(nil)
			}
		}
	})
}

// Stat returns a visible file.
func (s *System) Stat(path string) (*File, error) {
	i, ok := s.find(path)
	if !ok || s.files[i].VisibleAt > s.sim.Now() {
		return nil, fmt.Errorf("fs(%s): %s does not exist at t=%.1f", s.name, path, s.sim.Now())
	}
	return s.files[i], nil
}

// VerifySize stats a file and checks its size against what the writer
// intended — the reader-side guard that turns a silent truncation into a
// detectable error.
func (s *System) VerifySize(path string, wantBytes float64) (*File, error) {
	f, err := s.Stat(path)
	if err != nil {
		return nil, err
	}
	if f.Bytes != wantBytes {
		return nil, fmt.Errorf("fs(%s): %s truncated: %.0f of %.0f bytes", s.name, path, f.Bytes, wantBytes)
	}
	return f, nil
}

// Read starts reading a visible file, invoking done with it after duration
// seconds. Reading a missing file is an immediate error.
func (s *System) Read(path string, duration float64, done func(*File)) error {
	f, err := s.Stat(path)
	if err != nil {
		return err
	}
	s.sim.After(duration, func() { done(f) })
	return nil
}

// land places a file on the tier, replacing any file at its path, and logs
// the arrival. Every caller lands at (or, Restore, before) the current
// virtual time, so a landed file is visible from the moment it is indexed.
func (s *System) land(f *File) {
	if i, found := s.find(f.Path); found {
		s.files[i] = f
	} else {
		s.files = slices.Insert(s.files, i, f)
	}
	s.arrivals = append(s.arrivals, f.Path)
}

// find returns where path sits, or would be inserted, among the files.
func (s *System) find(path string) (int, bool) {
	return slices.BinarySearchFunc(s.files, path, func(f *File, p string) int { return strings.Compare(f.Path, p) })
}

// List returns the visible paths with the given prefix, sorted: the paths
// sharing a prefix are one contiguous range of the path order.
func (s *System) List(prefix string) []string {
	lo, _ := s.find(prefix)
	hi := lo
	for hi < len(s.files) && strings.HasPrefix(s.files[hi].Path, prefix) {
		hi++
	}
	if lo == hi {
		return nil
	}
	out := make([]string, 0, hi-lo)
	for _, f := range s.files[lo:hi] {
		if f.VisibleAt <= s.sim.Now() {
			out = append(out, f.Path)
		}
	}
	return out
}

// Arrivals returns the paths that landed since the reader's cursor, in
// landing order: every write completion that left a file (intact or
// truncated, first write or overwrite) and every Restore appends one
// entry, and nothing is ever removed. A reader starts at cursor 0 and
// advances it by the length returned, so a poll that finds nothing new
// is a bounds check. This is the primitive the co-scheduling listener
// polls ("The listener launches analysis jobs when pre-specified output
// files are generated by the main application", §3.2); a logged path may
// since have been deleted — Stat it. The result aliases the log: read only.
func (s *System) Arrivals(cursor int) []string {
	return s.arrivals[cursor:len(s.arrivals):len(s.arrivals)]
}

// Delete removes a file immediately (no-op when absent).
func (s *System) Delete(path string) {
	if i, found := s.find(path); found {
		s.files = slices.Delete(s.files, i, i+1)
	}
}

// Corrupt marks a resident file as silently rotted at rest, reporting
// whether a file was there to rot. Size and visibility are untouched —
// that is what makes the corruption silent. A later overwrite of the
// path clears the mark (the rewrite lands fresh bytes).
func (s *System) Corrupt(path string) bool {
	i, ok := s.find(path)
	if !ok || s.files[i].Corrupt {
		return ok
	}
	s.files[i].Corrupt = true
	s.Corruptions++
	return true
}

// Restore places a file on the tier, visible from t=0 — the campaign
// resume path re-populating the modelled storage with products that
// survived a previous incarnation (they physically exist, so the restarted
// run must see them without re-paying the write). payload is what a Write
// of the file would have carried.
func (s *System) Restore(path string, bytes float64, payload any) {
	s.land(&File{Path: path, Bytes: bytes, VisibleAt: 0, Payload: payload})
}
