package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds named metrics. Get-or-create accessors are idempotent,
// so instrumentation sites just ask for the metric by name. A nil
// *Registry is valid and inert (every accessor returns a nil handle
// whose methods no-op), which is the no-op observability path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing count. Safe for concurrent use —
// the staging area increments from consumer goroutines.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds 1. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta. Nil-safe.
func (c *Counter) Add(delta float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a last-written value with a high-water mark.
type Gauge struct {
	mu   sync.Mutex
	v    float64
	max  float64
	seen bool
}

// Set records v (and updates the high-water mark). Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	if !g.seen || v > g.max {
		g.max = v
	}
	g.seen = true
	g.mu.Unlock()
}

// Value returns the last set value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Max returns the high-water mark (0 for nil or never-set).
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Histogram buckets observations against fixed ascending upper bounds.
// counts[i] tallies observations ≤ Bounds[i]; counts[len(Bounds)] is the
// overflow bucket. Fixed bounds make the encode deterministic; pick bounds
// at registration time and never mutate them.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

// NewHistogram builds a standalone histogram (registry-less use, e.g. in
// tests). bounds must be ascending.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records v into its bucket. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...)
}

// Counts returns a copy of the bucket counts (len(Bounds)+1, last is
// overflow).
func (h *Histogram) Counts() []uint64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...)
}

// Counter returns the named counter, creating it on first use. Nil-safe
// (returns a nil handle).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Later calls ignore bounds (first registration
// wins), so instrumentation sites can share one set of bounds constants.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// WriteText encodes the registry as plain text, metrics sorted by name
// within kind — the deterministic order the CI two-run gate compares.
// Floats render with strconv 'g'/-1, the shortest exact form.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter %s %s\n", n, ftoa(r.counters[n].Value()))
	}
	names = names[:0]
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := r.gauges[n]
		fmt.Fprintf(&b, "gauge %s %s max=%s\n", n, ftoa(g.Value()), ftoa(g.Max()))
	}
	names = names[:0]
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := r.histograms[n]
		fmt.Fprintf(&b, "histogram %s count=%d sum=%s", n, h.Count(), ftoa(h.Sum()))
		bounds, counts := h.Bounds(), h.Counts()
		for i, c := range counts {
			if c == 0 {
				continue
			}
			if i < len(bounds) {
				fmt.Fprintf(&b, " le%s=%d", ftoa(bounds[i]), c)
			} else {
				fmt.Fprintf(&b, " inf=%d", c)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ftoa is the package's one float formatter: shortest round-trip form,
// identical across runs and platforms for a given float64.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
