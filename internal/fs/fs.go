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
package fs

import (
	"errors"
	"fmt"
	"sort"
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
	sim      *des.Sim
	name     string
	files    map[string]*File
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
	return &System{sim: sim, name: name, files: map[string]*File{}, writeSeq: map[string]int{}}
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
			s.files[path] = &File{Path: path, Bytes: bytes * frac, VisibleAt: completeAt, Payload: payload}
			if done != nil {
				done(nil)
			}
		default:
			s.files[path] = &File{Path: path, Bytes: bytes, VisibleAt: completeAt, Payload: payload}
			if done != nil {
				done(nil)
			}
		}
	})
}

// Stat returns a visible file.
func (s *System) Stat(path string) (*File, error) {
	f, ok := s.files[path]
	if !ok || f.VisibleAt > s.sim.Now() {
		return nil, fmt.Errorf("fs(%s): %s does not exist at t=%.1f", s.name, path, s.sim.Now())
	}
	return f, nil
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

// List returns the visible paths with the given prefix, sorted. This is
// the primitive the co-scheduling listener polls ("The listener launches
// analysis jobs when pre-specified output files are generated by the main
// application", §3.2).
func (s *System) List(prefix string) []string {
	var out []string
	for path, f := range s.files {
		if strings.HasPrefix(path, prefix) && f.VisibleAt <= s.sim.Now() {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// TotalBytes sums the sizes of all visible files with the prefix.
func (s *System) TotalBytes(prefix string) float64 {
	total := 0.0
	for path, f := range s.files {
		if strings.HasPrefix(path, prefix) && f.VisibleAt <= s.sim.Now() {
			total += f.Bytes
		}
	}
	return total
}

// Delete removes a file immediately (no-op when absent).
func (s *System) Delete(path string) { delete(s.files, path) }

// Corrupt marks a resident file as silently rotted at rest, reporting
// whether a file was there to rot. Size and visibility are untouched —
// that is what makes the corruption silent. A later overwrite of the
// path clears the mark (the rewrite lands fresh bytes).
func (s *System) Corrupt(path string) bool {
	f, ok := s.files[path]
	if !ok || f.Corrupt {
		return ok
	}
	f.Corrupt = true
	s.Corruptions++
	return true
}

// Restore places a file on the tier, visible from t=0 — the campaign
// resume path re-populating the modelled storage with products that
// survived a previous incarnation (they physically exist, so the restarted
// run must see them without re-paying the write). payload is what a Write
// of the file would have carried.
func (s *System) Restore(path string, bytes float64, payload any) {
	s.files[path] = &File{Path: path, Bytes: bytes, VisibleAt: 0, Payload: payload}
}
