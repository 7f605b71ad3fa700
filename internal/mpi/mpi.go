// Package mpi is an in-process message-passing runtime standing in for MPI.
//
// The paper's parallel analysis — overload-region exchange, halo ownership
// reconciliation, particle redistribution after off-line reads — is
// expressed over MPI ranks. Here each rank is a goroutine, and every
// collective is one mechanism: each rank stores its contribution in its
// own slot, all meet at a barrier, each reads what it needs of every
// slot, and all meet at a second barrier before any slot is reused. The
// barrier checks that every rank entered the same collective, and a
// mismatch, an error, a panic or an early return aborts the world, as
// MPI_Abort does. Only the transport differs from the paper's hardware
// (see DESIGN.md §2).
package mpi

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// World is the shared state of a fixed number of ranks.
type World struct {
	size  int
	slots []slot   // slots[r] is rank r's contribution to the current exchange
	kinds []string // kinds[r] is the collective rank r waits in, under barrierMu

	barrierMu  sync.Mutex
	barrierN   int
	barrierGen int
	barrierC   *sync.Cond
	gone       int  // ranks that returned
	down       bool // the world aborted, under barrierMu
}

// NewWorld creates a communicator world with the given number of ranks.
func NewWorld(size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size %d must be positive", size)
	}
	w := &World{size: size, slots: make([]slot, size), kinds: make([]string, size)}
	w.barrierC = sync.NewCond(&w.barrierMu)
	return w, nil
}

// Comm is one rank's handle onto the world.
type Comm struct {
	world *World
	rank  int
}

// Self returns a one-rank communicator for the calling goroutine, as
// MPI_COMM_SELF is: every collective on it returns at once.
func Self() *Comm {
	w, _ := NewWorld(1) // only a size below 1 fails
	return &Comm{world: w}
}

// Rank returns the caller's rank id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.size }

// Barrier blocks until every rank has entered the barrier.
func (c *Comm) Barrier() { c.barrier("Barrier") }

// barrier blocks until every rank has entered a barrier. The last to
// arrive checks that all entered it from the same kind of collective and
// aborts the world, naming both kinds, if not.
func (c *Comm) barrier(kind string) {
	w := c.world
	w.barrierMu.Lock()
	defer w.barrierMu.Unlock()
	if w.down {
		panic(abortSignal{})
	}
	if w.gone > 0 {
		panic(abortSignal{fmt.Errorf("mpi: rank %d entered a collective after a rank returned", c.rank)})
	}
	gen := w.barrierGen
	w.kinds[c.rank] = kind
	w.barrierN++
	if w.barrierN == w.size {
		for r, k := range w.kinds {
			if k != w.kinds[0] {
				w.abort()
				panic(abortSignal{fmt.Errorf("mpi: rank %d called %s while rank 0 called %s", r, k, w.kinds[0])})
			}
		}
		w.barrierN = 0
		w.barrierGen++
		w.barrierC.Broadcast()
	}
	for gen == w.barrierGen {
		if w.down {
			panic(abortSignal{})
		}
		w.barrierC.Wait()
	}
}

// abort marks the world down and wakes every rank waiting in a barrier,
// so each unwinds. The caller holds barrierMu.
func (w *World) abort() {
	w.down = true
	w.barrierC.Broadcast()
}

// abortSignal unwinds a rank; err is its own fault, nil if another's abort.
type abortSignal struct{ err error }

// leave records that rank returned with *err (or while others wait in a
// barrier: an error too). An error aborts the world.
func (w *World) leave(rank int, err *error) {
	w.barrierMu.Lock()
	defer w.barrierMu.Unlock()
	if *err == nil && w.barrierN > 0 && !w.down {
		*err = fmt.Errorf("mpi: rank %d returned while %d rank(s) wait in a collective", rank, w.barrierN)
	}
	if *err != nil && !w.down {
		w.abort()
	}
	w.gone++
}

// slot is one rank's contribution to an exchange: AllGather's value or
// AllToAll's row of values, one per destination.
type slot struct {
	val any
	row []any
}

// exchange stores mine in the caller's slot and, once every rank has
// stored its own, returns pick of each rank's slot, indexed by rank. The
// closing barrier keeps every slot intact until all ranks have read it.
func (c *Comm) exchange(kind string, mine slot, pick func(slot) any) []any {
	w := c.world
	w.slots[c.rank] = mine
	c.barrier(kind)
	in := make([]any, w.size)
	for s, sl := range w.slots {
		in[s] = pick(sl)
	}
	c.barrier(kind)
	return in
}

// AllGather collects each rank's value and returns the slice indexed by
// rank, identical on every rank. A fold over it in index order is the
// same on every rank and whatever the order the ranks arrived in.
func (c *Comm) AllGather(val any) []any {
	return c.exchange("AllGather", slot{val: val}, func(s slot) any { return s.val })
}

// AllToAll sends out[d] to rank d and returns in[s] received from each rank
// s. Every rank must call it in the same superstep.
func (c *Comm) AllToAll(out []any) []any {
	if len(out) != c.Size() {
		panic(fmt.Sprintf("mpi: AllToAll payload count %d != world size %d", len(out), c.Size()))
	}
	return c.exchange("AllToAll", slot{row: out}, func(s slot) any { return s.row[c.rank] })
}

// RunRanks launches fn on n ranks (one goroutine each) and waits for all to
// finish, returning the first non-nil error, a panic's too, by rank order.
func RunRanks(n int, fn func(c *Comm) error) error {
	w, err := NewWorld(n)
	if err != nil {
		return err
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					sig, ok := p.(abortSignal)
					if !ok {
						sig.err = fmt.Errorf("mpi: rank %d panicked: %v\n%s", rank, p, debug.Stack())
					}
					errs[rank] = sig.err
				}
				w.leave(rank, &errs[rank])
			}()
			errs[rank] = fn(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
