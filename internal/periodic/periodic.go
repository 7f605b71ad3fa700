// Package periodic is the periodic-box arithmetic the kernels share. Both
// functions return the exact bits of the long math.Mod / math.Round form
// for every input; where that form provably leaves the value as it is,
// compares answer instead, and the long form sits out of line so the
// short one inlines into the kernels' loops.
package periodic

import "math"

// Wrap folds x into [0, l): math.Mod(x, l), plus l when that is negative.
// Mod returns an x in [0, l) unchanged.
func Wrap(x, l float64) float64 {
	if 0 <= x && x < l {
		return x
	}
	return wrapFar(x, l)
}

//go:noinline
func wrapFar(x, l float64) float64 {
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}

// MinImage returns the minimum-image separation d - l·round(d/l). When
// |2d| < l (doubling is exact, or overflows into a failing compare),
// round(d/l) is the zero of d's sign, and l times it is l·0: +0, which
// turns a -0 into +0, or NaN for an infinite l.
func MinImage(d, l float64) float64 {
	if 2*d < l && -2*d < l {
		return d + l*0
	}
	return minImageFar(d, l)
}

//go:noinline
func minImageFar(d, l float64) float64 { return d - l*math.Round(d/l) }
