// Package ckpt is the crash-consistency layer of the workflow stack: a
// write-ahead journal of completed work plus atomic file commits. Long
// campaigns — "the runs were carried out over a period of days" (§4.1) —
// outlive any single batch job, so every process in the stack (the
// simulation, the workflow engine, the co-scheduling listener) must be
// able to die at an arbitrary instruction and restart without redoing
// finished work or trusting half-written output.
//
// The design is the classic WAL-plus-manifest pair:
//
//   - Product files are committed atomically (temp file in the same
//     directory, fsync, rename, directory fsync). A crash mid-commit
//     leaves at worst a stale *.tmp file, never a torn final file.
//   - After a product lands, a journal record (kind, step, path, size,
//     CRC32) is appended and fsync'd. The journal is the sole authority:
//     a file without a record is untrusted — a crash may have struck
//     between write and rename — and is redone on resume.
//   - Each journal record carries its own CRC32 frame, so a crash
//     mid-append leaves a torn tail that replay detects and truncates
//     instead of failing wholesale.
//
// Replay therefore converges: any prefix of the journal is a valid
// recovery point, and re-running from it produces byte-identical
// products (the work generators are deterministic in the step index).
package ckpt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
)

// Record kinds written by the campaign engine and the listener. Packages
// are free to journal their own kinds; the manifest only interprets these.
const (
	// KindMeta identifies the campaign (scenario name, timesteps, seeds);
	// resuming under different parameters is refused.
	KindMeta = "meta"
	// KindRun marks one process incarnation; the count of run records is
	// the campaign's generation (how many times it has been started).
	KindRun = "run"
	// KindStep records a committed per-step simulation product (the
	// Level 2 file): the step is durably done.
	KindStep = "step"
	// KindPost records a completed analysis job: the campaign engine's
	// per-step job and its catalog, or a job cmd/listener ran on Path.
	KindPost = "post"
	// KindMerge records a committed merged catalog.
	KindMerge = "merge"
)

// Record is one journal entry. Fields beyond Kind are optional and
// kind-dependent.
type Record struct {
	Kind string `json:"kind"`
	// Step is the 1-based timestep a step/post record covers.
	Step int `json:"step,omitempty"`
	// Name carries free-form identity (job name, scenario name).
	Name string `json:"name,omitempty"`
	// Path, Bytes and CRC describe a committed file (path relative to the
	// journal's directory).
	Path  string `json:"path,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	CRC   uint32 `json:"crc,omitempty"`
	// Timesteps, Seed and FaultSeed pin campaign parameters (meta records).
	Timesteps int   `json:"timesteps,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	FaultSeed int64 `json:"fault_seed,omitempty"`
}

// Journal is an append-only, fsync'd log of framed lines: the campaign's
// Records, or any other record type opened with OpenLog. It is not safe
// for concurrent use: each writer appends from a single goroutine.
type Journal struct {
	f *os.File
}

// Frame serializes any JSON-marshalable value as one self-checking
// journal line:
//
//	<json payload> <crc32-of-payload-hex>\n
//
// A torn append is detectable and truncatable, never silently
// half-parsed.
func Frame(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("ckpt: marshal record: %w", err)
	}
	line := fmt.Sprintf("%s %08x\n", payload, crc32.ChecksumIEEE(payload))
	return []byte(line), nil
}

// parseFrame validates one framed line (without its trailing newline) and
// unmarshals the payload into v, reporting ok=false for a torn or corrupt
// frame.
func parseFrame(line string, v any) bool {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return false
	}
	// The CRC must be spelled as Frame writes it, eight lowercase hex
	// digits: accepting any other spelling of the same number (upper case,
	// fewer digits) would let a flipped case bit pass unnoticed.
	payload, sum := line[:i], line[i+1:]
	want, err := strconv.ParseUint(sum, 16, 32)
	if err != nil || len(sum) != 8 || strings.ToLower(sum) != sum || crc32.ChecksumIEEE([]byte(payload)) != uint32(want) {
		return false
	}
	return json.Unmarshal([]byte(payload), v) == nil
}

// Open replays the journal at path (creating it if absent) and reopens it
// for appending. The returned records are the valid prefix (see OpenLog).
func Open(path string) (*Journal, []Record, error) {
	var records []Record
	j, err := OpenLog(path, func(r Record) { records = append(records, r) })
	if err != nil {
		return nil, nil, err
	}
	return j, records, nil
}

// OpenLog replays the framed log at path (creating it if absent), handing
// each record to replay in order, and reopens the file for appending. The
// first torn or corrupt line — the signature of a crash mid-append — ends
// the valid prefix: it and everything after it are truncated away, so
// later appends start from a consistent point.
func OpenLog[T any](path string, replay func(T)) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ckpt: open log: %w", err)
	}
	valid := int64(0)
	br := bufio.NewReader(f)
	for {
		line, err := br.ReadString('\n')
		if errors.Is(err, io.EOF) {
			// A final line without newline is a torn append: drop it.
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("ckpt: read log: %w", err)
		}
		var v T
		if !parseFrame(strings.TrimSuffix(line, "\n"), &v) {
			break // torn/corrupt record: everything after is untrusted
		}
		replay(v)
		valid += int64(len(line))
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("ckpt: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("ckpt: seek log: %w", err)
	}
	return &Journal{f: f}, nil
}

// Append durably writes one record (see AppendFrame).
func (j *Journal) Append(r Record) error { return j.AppendFrame(r) }

// AppendFrame durably writes v as one framed line: it is fsync'd before
// AppendFrame returns, so a line that was observed written survives any
// later crash.
func (j *Journal) AppendFrame(v any) error {
	line, err := Frame(v)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("ckpt: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("ckpt: sync: %w", err)
	}
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.f.Close() }
