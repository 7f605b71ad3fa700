package mpi

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runWithin runs RunRanks(n, fn) under a 5 s deadline, so a world that
// hangs fails its test instead of the suite's timeout (the ranks a hang
// leaves blocked are leaked).
func runWithin(t *testing.T, n int, fn func(c *Comm) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- RunRanks(n, fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("RunRanks(%d, …) still blocked after 5 s", n)
		return nil
	}
}

// awaitBarrier returns once n ranks wait in w's current barrier.
func awaitBarrier(w *World, n int) {
	for {
		w.barrierMu.Lock()
		waiting := w.barrierN
		w.barrierMu.Unlock()
		if waiting >= n {
			return
		}
		runtime.Gosched()
	}
}

// A rank-local error before a collective aborts the world: the ranks
// blocked in AllGather, Barrier and AllToAll unwind, and RunRanks returns
// that error.
func TestRankErrorBeforeCollectiveAborts(t *testing.T) {
	failed := errors.New("rank 2 failed")
	err := runWithin(t, 4, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.AllGather(1)
		case 1:
			c.Barrier()
		case 2:
			awaitBarrier(c.world, 2)
			return failed
		case 3:
			c.AllToAll(make([]any, c.Size()))
		}
		return nil
	})
	if !errors.Is(err, failed) {
		t.Fatalf("RunRanks = %v, want rank 2's error", err)
	}
}

// With several failing ranks RunRanks returns the first in rank order, not
// the first in time, and the ranks the abort unwinds add none.
func TestRankErrorsFirstInRankOrder(t *testing.T) {
	first, second := errors.New("rank 1 failed"), errors.New("rank 2 failed")
	failing := make(chan struct{})
	err := runWithin(t, 3, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.AllGather(c.Rank())
		case 1:
			<-failing
			return first
		case 2:
			awaitBarrier(c.world, 1)
			close(failing)
			return second
		}
		return nil
	})
	if !errors.Is(err, first) {
		t.Fatalf("RunRanks = %v, want rank 1's error", err)
	}
}

// A panic before a Barrier is its rank's error and aborts the world.
func TestRankPanicBeforeBarrierAborts(t *testing.T) {
	err := runWithin(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			awaitBarrier(c.world, 1)
			panic("boom")
		}
		c.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1 panicked: boom") {
		t.Fatalf("RunRanks = %v, want rank 1's panic", err)
	}
}

// A rank that returns nil while another waits on it — in a Barrier it
// entered first or enters later, or in an AllToAll — is an error, not
// a hang. The sleeps only make one order likely; either must fail.
func TestRankReturnWhileOthersWaitIsError(t *testing.T) {
	for _, tc := range []struct {
		name         string
		rank0, rank1 func(c *Comm)
	}{
		{"barrier entered first",
			func(c *Comm) { awaitBarrier(c.world, 1) },
			func(c *Comm) { c.Barrier() }},
		{"barrier entered after",
			func(c *Comm) {},
			func(c *Comm) { time.Sleep(20 * time.Millisecond); c.Barrier() }},
		{"alltoall",
			func(c *Comm) {},
			func(c *Comm) { time.Sleep(20 * time.Millisecond); c.AllToAll([]any{0, 1}) }},
	} {
		err := runWithin(t, 2, func(c *Comm) error {
			if c.Rank() == 0 {
				tc.rank0(c)
			} else {
				tc.rank1(c)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "returned") {
			t.Errorf("%s: RunRanks = %v, want an error naming the rank that returned", tc.name, err)
		}
	}
}

// Ranks that enter different collectives abort the world with an error
// naming both, instead of pairing one's barriers with the other's.
func TestCollectiveKindMismatchAborts(t *testing.T) {
	for _, tc := range []struct {
		odd, rest func(c *Comm)
		kinds     []string
	}{
		{func(c *Comm) { c.AllGather(c.Rank()) }, func(c *Comm) { c.Barrier() },
			[]string{"AllGather", "Barrier"}},
		{func(c *Comm) { c.AllToAll(make([]any, c.Size())) }, func(c *Comm) { c.AllGather(c.Rank()) },
			[]string{"AllToAll", "AllGather"}},
	} {
		err := runWithin(t, 3, func(c *Comm) error {
			if c.Rank() == 1 {
				tc.odd(c)
			} else {
				tc.rest(c)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "rank 1 called "+tc.kinds[0]) ||
			!strings.Contains(err.Error(), "called "+tc.kinds[1]) {
			t.Errorf("rank 1 in %s, others in %s: RunRanks = %v, want an error naming both", tc.kinds[0], tc.kinds[1], err)
		}
	}
}
