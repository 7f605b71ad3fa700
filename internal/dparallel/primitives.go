package dparallel

import (
	"math"
	"sync"
)

// MinIndex returns the index i in [0, n) minimizing value(i), together with
// the minimum value. A NaN never beats a number, and ties (all-NaN
// included) resolve to the smallest index, so the result is independent of
// backend chunking. It returns (-1, +Inf) when n <= 0.
//
// MinIndex is the primitive at the heart of the paper's data-parallel MBP
// center finder: compute the potential of every particle in parallel, then
// take the argmin.
func MinIndex(b Backend, n int, value func(i int) float64) (int, float64) {
	if n <= 0 {
		return -1, math.Inf(1)
	}
	var mu sync.Mutex
	best, bestVal := -1, math.NaN()
	b.ForRange(n, func(lo, hi int) {
		idx, val := lo, value(lo)
		for i := lo + 1; i < hi; i++ {
			if v := value(i); before(v, i, val, idx) {
				idx, val = i, v
			}
		}
		mu.Lock()
		if best < 0 || before(val, idx, bestVal, best) {
			best, bestVal = idx, val
		}
		mu.Unlock()
	})
	return best, bestVal
}

// before orders (value, index) pairs: smaller values first, NaN after every
// number, then smaller indices. It is a total order, so chunk minima can
// merge in any order.
func before(v float64, i int, w float64, j int) bool {
	switch {
	case v < w:
		return true
	case v > w:
		return false
	case v == w || math.IsNaN(v) && math.IsNaN(w):
		return i < j
	}
	return math.IsNaN(w) // exactly one is NaN
}

// A Runner runs methods of one receiver through a Backend without
// allocating per call: its ForRange body is bound once, to the Runner and
// its receiver, and each Run only swaps in the method. A kernel type keeps
// one as a field, beside the operands of the pass in flight; a copied
// receiver rebinds on its first Run. Not for concurrent use.
type Runner[T any] struct {
	recv *T
	op   func(*T, int, int)
	body func(lo, hi int)
}

// Run calls op(recv, lo, hi) over disjoint chunks covering [0, n) on b and
// returns when all are done. op is typically a method expression such as
// (*Cube).rows, a static function value.
func (r *Runner[T]) Run(b Backend, recv *T, n int, op func(recv *T, lo, hi int)) {
	if r.recv != recv {
		r.recv = recv
		r.body = func(lo, hi int) { r.op(r.recv, lo, hi) }
	}
	r.op = op
	b.ForRange(n, r.body)
}
