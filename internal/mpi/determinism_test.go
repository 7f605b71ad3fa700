package mpi

import (
	"fmt"
	"math"
	"testing"
)

// TestAllReduceDeterministicOrder pins the contract an all-reduce built
// on AllGather relies on (powerspec.MeasureParallel's grid sum is one):
// the gathered slice is indexed by rank, so its fold ((v0 + v1) + v2) ...
// is bit-identical no matter in which order the ranks arrive at the
// collective. The values are chosen so that a different association
// produces a different bit pattern (1e16 + 1 - 1e16 is 0 or 1 or 2
// depending on grouping); the ranks are released into the collective in
// several explicit permutations, and every rank of every trial must
// reproduce the serial rank-order fold exactly.
func TestAllReduceDeterministicOrder(t *testing.T) {
	vals := []float64{1e16, 1.0, -1e16, 1.0, 0.5, 1e-8, -3.75, 2.0}
	n := len(vals)

	ref := vals[0]
	for _, v := range vals[1:] {
		ref += v
	}
	refBits := math.Float64bits(ref)

	perms := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7}, // rank order
		{7, 6, 5, 4, 3, 2, 1, 0}, // reversed
		{4, 5, 6, 7, 0, 1, 2, 3}, // rotated
		{3, 0, 7, 1, 6, 2, 5, 4}, // interleaved
	}

	for pi, perm := range perms {
		// gates[r] admits rank r into the collective; the driver below
		// opens them in permutation order, and entered serializes the
		// handoff so arrival order follows the permutation.
		gates := make([]chan struct{}, n)
		for i := range gates {
			gates[i] = make(chan struct{})
		}
		entered := make(chan struct{})
		go func() {
			for _, r := range perm {
				close(gates[r])
				<-entered
			}
		}()

		var sums [8]uint64
		err := RunRanks(n, func(c *Comm) error {
			<-gates[c.Rank()]
			entered <- struct{}{}
			all := c.AllGather(vals[c.Rank()])
			s := all[0].(float64)
			for _, v := range all[1:] {
				s += v.(float64)
			}
			sums[c.Rank()] = math.Float64bits(s)
			return nil
		})
		if err != nil {
			t.Fatalf("perm %d: %v", pi, err)
		}
		for r, bits := range sums {
			if bits != refBits {
				t.Errorf("perm %v rank %d: sum = %x (%v), want rank-order fold %x (%v)",
					perm, r, bits, math.Float64frombits(bits), refBits, ref)
			}
		}
	}
}

// TestAllReduceOrderSensitiveValues double-checks the test inputs do
// what the determinism test needs them to: at least one non-rank-order
// fold of the same values yields a different bit pattern. If every
// permutation summed to the same bits, the test above would pass
// vacuously.
func TestAllReduceOrderSensitiveValues(t *testing.T) {
	vals := []float64{1e16, 1.0, -1e16, 1.0, 0.5, 1e-8, -3.75, 2.0}
	ref := vals[0]
	for _, v := range vals[1:] {
		ref += v
	}
	// Reverse-order fold: 1e16 absorbs the small values.
	rev := vals[len(vals)-1]
	for i := len(vals) - 2; i >= 0; i-- {
		rev += vals[i]
	}
	if math.Float64bits(ref) == math.Float64bits(rev) {
		t.Fatalf("fixture values are order-insensitive: both folds give %v; pick harder values", ref)
	}
	if testing.Verbose() {
		fmt.Printf("rank-order fold %v, reverse fold %v\n", ref, rev)
	}
}
