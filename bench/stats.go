package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest percentile of vs that still has at
// least ten samples beyond it, and that percentile's value: p98 at 600
// samples, p50 at 20. ok is false below 20 samples, where no percentile
// past the median qualifies.
func tailPercentile(vs []float64) (pct, value float64, ok bool) {
	n := len(vs)
	if n < 20 {
		return 0, 0, false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	idx := n - 11 // exactly ten samples lie beyond s[idx]
	pct = math.Floor(100 * float64(idx+1) / float64(n))
	return pct, s[idx], true
}

// relDiff is |a-b| relative to the larger magnitude; 0 when both are 0.
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// mod is i mod n for n > 0, non-negative also for the warm-up's i = -1.
func mod(i, n int) int { return ((i % n) + n) % n }
