package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ckpt"
)

// span is one timed call the benchmark made into a package's public API.
// Times are offsets from the tracer's origin (time.Since, so no wall-clock
// value ever reaches the trace file — dettaint's rule for product writes).
type span struct {
	name       string // "package.Function"
	workload   string
	op         int
	lane       int // 0 for the op's own goroutine, 1+rank inside mpi.RunRanks
	parent     int // index into tracer.spans, -1 for an op's root span
	start, end time.Duration
}

// layer is the package the span's call entered.
func (s *span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i > 0 {
		return s.name[:i]
	}
	return s.name
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// ref names an open span; a nil ref (from a nil tracer) is inert.
type ref struct {
	t        *tracer
	idx      int
	workload string
	op       int
}

// beginOp opens the root span of one op.
func (t *tracer) beginOp(workload string, op int) *ref {
	if t == nil {
		return nil
	}
	return t.open(-1, workload, op, 0, "bench.op")
}

func (t *tracer) open(parent int, workload string, op, lane int, name string) *ref {
	s := span{name: name, workload: workload, op: op, lane: lane, parent: parent,
		start: time.Since(t.origin)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	idx := len(t.spans) - 1
	t.mu.Unlock()
	return &ref{t: t, idx: idx, workload: workload, op: op}
}

// begin opens a child span on lane 0 (the op's own goroutine).
func (r *ref) begin(name string) *ref { return r.beginLane(0, name) }

// beginLane opens a child span on the given lane (1+rank inside
// mpi.RunRanks, so parallel ranks render as separate threads).
func (r *ref) beginLane(lane int, name string) *ref {
	if r == nil {
		return nil
	}
	return r.t.open(r.idx, r.workload, r.op, lane, name)
}

// end closes the span.
func (r *ref) end() {
	if r == nil {
		return
	}
	end := time.Since(r.t.origin)
	r.t.mu.Lock()
	r.t.spans[r.idx].end = end
	r.t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (children that overlap — two ranks — are counted once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := time.Duration(0)
		cursor := s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < cursor {
				lo = cursor
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerShares sums self time per layer over one workload's spans and
// returns it as a percentage of the summed root-span (op) durations, plus
// how much of the op time the root's direct children and its own self time
// account for (100 by construction when the direct children do not
// overlap; the acceptance check for "top-level self times sum to the op").
func layerShares(spans []span, workload string) (shares map[string]float64, cover float64) {
	self := selfTimes(spans)
	var opTotal, topTotal time.Duration
	byLayer := map[string]time.Duration{}
	for i, s := range spans {
		if s.workload != workload {
			continue
		}
		byLayer[s.layer()] += self[i]
		if s.parent < 0 {
			opTotal += s.dur()
			topTotal += self[i]
		} else if spans[s.parent].parent < 0 {
			topTotal += s.dur()
		}
	}
	shares = map[string]float64{}
	if opTotal == 0 {
		return shares, 0
	}
	for l, d := range byLayer {
		shares[l] = 100 * float64(d) / float64(opTotal)
	}
	return shares, 100 * float64(topTotal) / float64(opTotal)
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): one complete ("X") event per span, one pid per workload, one
// tid per lane.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	pids := map[string]int{}
	events := make([]event, 0, len(spans)+8)
	for _, s := range spans {
		pid, ok := pids[s.workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.workload] = pid
			events = append(events, event{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": s.workload}})
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer(), Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: pid, Tid: s.lane,
			Args: map[string]any{"op": s.op},
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return fmt.Errorf("bench: encode trace: %w", err)
	}
	if err := ckpt.WriteFileAtomic(path, buf.Bytes()); err != nil {
		return fmt.Errorf("bench: write trace: %w", err)
	}
	return nil
}
