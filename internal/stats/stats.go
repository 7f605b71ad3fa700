// Package stats provides the histogram and summary-statistic helpers the
// benchmark harness uses to regenerate the paper's figures: the log-log
// halo mass function of Figure 3 and the node-time distribution of
// Figure 4.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a set of uniform bins over [Min, Max) in linear or
// logarithmic coordinates.
type Histogram struct {
	// Min and Max bound the binned range (in log10 space when Log is set).
	Min, Max float64
	// Log bins in log10 of the value.
	Log bool
	// Counts per bin.
	Counts []int
	// Underflow and Overflow count out-of-range samples.
	Underflow, Overflow int
}

// NewHistogram creates a histogram with n bins spanning [min, max) in
// linear space.
func NewHistogram(min, max float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: bin count %d must be positive", n)
	}
	if !(max > min) {
		return nil, fmt.Errorf("stats: range [%g, %g) is empty", min, max)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, n)}, nil
}

// NewLogHistogram creates a histogram with n bins uniform in log10 between
// min and max (both > 0) — the binning of the paper's Figure 3 mass
// function.
func NewLogHistogram(min, max float64, n int) (*Histogram, error) {
	if min <= 0 || max <= min {
		return nil, fmt.Errorf("stats: log range (%g, %g) invalid", min, max)
	}
	h, err := NewHistogram(math.Log10(min), math.Log10(max), n)
	if err != nil {
		return nil, err
	}
	h.Log = true
	return h, nil
}

// Add accumulates one sample.
func (h *Histogram) Add(v float64) {
	x := v
	if h.Log {
		if v <= 0 {
			h.Underflow++
			return
		}
		x = math.Log10(v)
	}
	if x < h.Min {
		h.Underflow++
		return
	}
	if x >= h.Max {
		h.Overflow++
		return
	}
	bin := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
	if bin == len(h.Counts) { // guard against round-up at the edge
		bin--
	}
	h.Counts[bin]++
}

// BinEdges returns the n+1 edges in value space (delogged when Log).
func (h *Histogram) BinEdges() []float64 {
	n := len(h.Counts)
	edges := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		e := h.Min + (h.Max-h.Min)*float64(i)/float64(n)
		if h.Log {
			e = math.Pow(10, e)
		}
		edges[i] = e
	}
	return edges
}

// BinCenters returns the n bin centres in value space (geometric centres
// when Log).
func (h *Histogram) BinCenters() []float64 {
	n := len(h.Counts)
	centers := make([]float64, n)
	for i := 0; i < n; i++ {
		c := h.Min + (h.Max-h.Min)*(float64(i)+0.5)/float64(n)
		if h.Log {
			c = math.Pow(10, c)
		}
		centers[i] = c
	}
	return centers
}

// Render draws a fixed-width ASCII bar chart, with log-scaled bar lengths
// when logCounts is set (Figure 4 "showing node counts on a log scale").
func (h *Histogram) Render(width int, logCounts bool) string {
	if width <= 0 {
		width = 50
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	edges := h.BinEdges()
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 && c > 0 {
			if logCounts {
				bar = int(math.Round(float64(width) * math.Log10(float64(c)+1) / math.Log10(float64(maxC)+1)))
			} else {
				bar = int(math.Round(float64(width) * float64(c) / float64(maxC)))
			}
			if bar == 0 {
				bar = 1
			}
		}
		fmt.Fprintf(&b, "%12.4g-%-12.4g |%s %d\n", edges[i], edges[i+1], strings.Repeat("#", bar), c)
	}
	return b.String()
}

// Summary holds order statistics of a sample.
type Summary struct {
	N                int
	Min, Max         float64
	Mean, Median     float64
	P90, P99         float64
	Sum              float64
	MaxOverMin       float64 // load-imbalance ratio (Inf if Min == 0)
	StdDev           float64
	TotalOverPerfect float64 // Sum / (N * Min): how far from perfectly balanced
}

// Summarize computes order statistics; it returns an error for empty
// input.
func Summarize(vs []float64) (Summary, error) {
	if len(vs) == 0 {
		return Summary{}, fmt.Errorf("stats: empty sample")
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	var sum, sum2 float64
	for _, v := range s {
		sum += v
		sum2 += v * v
	}
	n := float64(len(s))
	mean := sum / n
	variance := sum2/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	out := Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		Median: quantile(s, 0.5),
		P90:    quantile(s, 0.9),
		P99:    quantile(s, 0.99),
		Sum:    sum,
		StdDev: math.Sqrt(variance),
	}
	if out.Min > 0 {
		out.MaxOverMin = out.Max / out.Min
		out.TotalOverPerfect = sum / (n * out.Min)
	} else {
		out.MaxOverMin = math.Inf(1)
		out.TotalOverPerfect = math.Inf(1)
	}
	return out, nil
}

// quantile interpolates the q-quantile of sorted data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
