package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("expected bin count error")
	}
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Error("expected empty range error")
	}
	if _, err := NewLogHistogram(0, 10, 4); err == nil {
		t.Error("expected log range error")
	}
	if _, err := NewLogHistogram(10, 1, 4); err == nil {
		t.Error("expected inverted range error")
	}
}

// addAll adds every sample to h.
func addAll(h *Histogram, vs ...float64) {
	for _, v := range vs {
		h.Add(v)
	}
}

// inRange returns the number of in-range samples h holds.
func inRange(h *Histogram) int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

func TestHistogramLinearBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	addAll(h, 0, 1.9, 2, 5, 9.99)
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[4] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	h.Add(-1)
	h.Add(10)
	if h.Underflow != 1 || h.Overflow != 1 {
		t.Errorf("under/over = %d/%d", h.Underflow, h.Overflow)
	}
	if inRange(h) != 5 {
		t.Errorf("total = %d", inRange(h))
	}
}

func TestHistogramLogBinning(t *testing.T) {
	h, err := NewLogHistogram(1, 10000, 4) // decades
	if err != nil {
		t.Fatal(err)
	}
	addAll(h, 2, 20, 200, 2000)
	for i, c := range h.Counts {
		if c != 1 {
			t.Errorf("bin %d = %d", i, c)
		}
	}
	h.Add(0)
	h.Add(-5)
	if h.Underflow != 2 {
		t.Errorf("underflow = %d", h.Underflow)
	}
	edges := h.BinEdges()
	want := []float64{1, 10, 100, 1000, 10000}
	for i := range want {
		if math.Abs(edges[i]-want[i]) > 1e-9*want[i] {
			t.Errorf("edge %d = %v, want %v", i, edges[i], want[i])
		}
	}
	centers := h.BinCenters()
	if math.Abs(centers[0]-math.Sqrt(10)) > 1e-9 {
		t.Errorf("center 0 = %v", centers[0])
	}
}

func TestHistogramEdgeRoundUp(t *testing.T) {
	h, _ := NewHistogram(0, 1, 3)
	// A value infinitesimally below max must land in the last bin.
	h.Add(math.Nextafter(1, 0))
	if h.Counts[2] != 1 || h.Overflow != 0 {
		t.Errorf("counts = %v over = %d", h.Counts, h.Overflow)
	}
}

func TestRender(t *testing.T) {
	h, _ := NewHistogram(0, 4, 2)
	addAll(h, 1, 1, 1, 3)
	out := h.Render(10, false)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "##########") {
		t.Errorf("first bar not full width: %q", lines[0])
	}
	if !strings.HasSuffix(lines[0], " 3") || !strings.HasSuffix(lines[1], " 1") {
		t.Errorf("counts missing: %q %q", lines[0], lines[1])
	}
	// Log-count rendering must not blow up on zeros.
	h2, _ := NewHistogram(0, 2, 2)
	h2.Add(0.5)
	_ = h2.Render(10, true)
}

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("expected empty error")
	}
	s, err := Summarize([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Sum != 10 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-2.5) > 1e-12 || math.Abs(s.Median-2.5) > 1e-12 {
		t.Errorf("mean/median = %v/%v", s.Mean, s.Median)
	}
	if math.Abs(s.MaxOverMin-4) > 1e-12 {
		t.Errorf("imbalance = %v", s.MaxOverMin)
	}
	z, err := Summarize([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(z.MaxOverMin, 1) {
		t.Errorf("zero-min imbalance = %v", z.MaxOverMin)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Median != 7 || s.P90 != 7 || s.StdDev != 0 {
		t.Errorf("summary = %+v", s)
	}
}

// Property: Total + Underflow + Overflow equals the number of samples.
func TestPropertyHistogramConservesSamples(t *testing.T) {
	f := func(raw []float64) bool {
		h, _ := NewHistogram(-5, 5, 7)
		n := 0
		for _, v := range raw {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
			n++
		}
		return inRange(h)+h.Underflow+h.Overflow == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Summary respects Min <= Median <= Max and Min <= Mean <= Max.
func TestPropertySummaryOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vs := make([]float64, len(raw))
		for i, v := range raw {
			vs[i] = float64(v)
		}
		s, err := Summarize(vs)
		if err != nil {
			return false
		}
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max+1e-9 && s.P90 <= s.P99+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
