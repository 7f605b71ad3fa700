package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("expected error for size 0")
	}
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	if w.size != 3 {
		t.Errorf("size = %d", w.size)
	}
}

func TestRunRanksPropagatesError(t *testing.T) {
	sentinel := errors.New("rank failure")
	err := RunRanks(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestRunRanksRejectsZeroRanks(t *testing.T) {
	if err := RunRanks(0, func(*Comm) error { return nil }); err == nil {
		t.Error("expected error")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var before, after int32
	err := RunRanks(8, func(c *Comm) error {
		atomic.AddInt32(&before, 1)
		c.Barrier()
		if atomic.LoadInt32(&before) != 8 {
			return fmt.Errorf("rank %d passed barrier with before=%d", c.Rank(), before)
		}
		atomic.AddInt32(&after, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != 8 {
		t.Errorf("after = %d", after)
	}
}

func TestRepeatedBarriers(t *testing.T) {
	err := RunRanks(4, func(c *Comm) error {
		for i := 0; i < 100; i++ {
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherOrderedByRank(t *testing.T) {
	err := RunRanks(5, func(c *Comm) error {
		all := c.AllGather(c.Rank() * 10)
		for r, v := range all {
			if v.(int) != r*10 {
				return fmt.Errorf("rank %d: all[%d] = %v", c.Rank(), r, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherRepeatedRounds(t *testing.T) {
	err := RunRanks(3, func(c *Comm) error {
		for round := 0; round < 50; round++ {
			all := c.AllGather(c.Rank() + round*100)
			for r, v := range all {
				if v.(int) != r+round*100 {
					return fmt.Errorf("round %d rank %d: all[%d] = %v", round, c.Rank(), r, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllExchangesEverything(t *testing.T) {
	err := RunRanks(4, func(c *Comm) error {
		out := make([]any, 4)
		for d := range out {
			out[d] = fmt.Sprintf("%d->%d", c.Rank(), d)
		}
		in := c.AllToAll(out)
		for s := range in {
			want := fmt.Sprintf("%d->%d", s, c.Rank())
			if in[s].(string) != want {
				return fmt.Errorf("in[%d] = %v, want %v", s, in[s], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllRepeated(t *testing.T) {
	err := RunRanks(3, func(c *Comm) error {
		for round := 0; round < 20; round++ {
			out := make([]any, 3)
			for d := range out {
				out[d] = c.Rank()*100 + d + round*1000
			}
			in := c.AllToAll(out)
			for s := range in {
				want := s*100 + c.Rank() + round*1000
				if in[s].(int) != want {
					return fmt.Errorf("round %d: in[%d] = %v, want %d", round, s, in[s], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// One rank, launched by RunRanks or taken from Self in the test's own
// goroutine, gets its own contribution back from every collective.
func TestSingleRankWorld(t *testing.T) {
	body := func(c *Comm) error {
		c.Barrier()
		if all := c.AllGather(3); len(all) != 1 || all[0].(int) != 3 {
			return fmt.Errorf("allgather = %v", all)
		}
		in := c.AllToAll([]any{42})
		if in[0].(int) != 42 {
			return fmt.Errorf("alltoall = %v", in[0])
		}
		return nil
	}
	if err := RunRanks(1, body); err != nil {
		t.Fatal(err)
	}
	if c := Self(); c.Rank() != 0 || c.Size() != 1 {
		t.Fatalf("Self is rank %d of %d, want 0 of 1", c.Rank(), c.Size())
	} else if err := body(c); err != nil {
		t.Fatalf("Self: %v", err)
	}
}
