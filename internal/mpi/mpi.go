// Package mpi is an in-process message-passing runtime standing in for MPI.
//
// The paper's parallel analysis — overload-region exchange, halo ownership
// reconciliation, particle redistribution after off-line reads — is
// expressed over MPI ranks. Here each rank is a goroutine and the
// communicator routes typed messages over per-pair buffered channels, so
// the identical communication patterns (neighbour exchange, alltoall
// redistribution, reductions) run unchanged; only the transport differs
// from the paper's hardware (see DESIGN.md §2).
package mpi

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// message is one tagged payload in flight between two ranks.
type message struct {
	tag     int
	payload any
}

// World owns the channel mesh for a fixed number of ranks.
type World struct {
	size  int
	pipes [][]chan message // pipes[src][dst]
	left  []chan struct{}  // left[r] is closed once rank r's function returned

	barrierMu  sync.Mutex
	barrierN   int
	barrierGen int
	barrierC   *sync.Cond
	gone       int  // ranks that returned
	down       bool // aborted is closed, under barrierMu
	aborted    chan struct{}

	reduceMu  sync.Mutex
	reduceBuf map[int][]any // collective generation -> contributions by rank
}

// NewWorld creates a communicator world with the given number of ranks.
func NewWorld(size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size %d must be positive", size)
	}
	w := &World{size: size, reduceBuf: map[int][]any{}, aborted: make(chan struct{})}
	w.pipes = make([][]chan message, size)
	w.left = make([]chan struct{}, size)
	for s := range w.pipes {
		w.left[s] = make(chan struct{})
		w.pipes[s] = make([]chan message, size)
		for d := range w.pipes[s] {
			// Generous buffering: analysis exchanges post all sends before
			// receiving, the classic MPI_Isend pattern.
			w.pipes[s][d] = make(chan message, 1024)
		}
	}
	w.barrierC = sync.NewCond(&w.barrierMu)
	return w, nil
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Comm is one rank's handle onto the world.
type Comm struct {
	world *World
	rank  int
	// redGen counts collective calls made by this rank so that concurrent
	// collectives from successive supersteps do not mix.
	redGen int
}

// Rank returns the caller's rank id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.size }

// Send delivers payload to rank dst with the given tag. Send never blocks
// unless the destination's buffer (1024 in-flight messages) is full, which
// matches the eager protocol small analysis messages rely on.
func (c *Comm) Send(dst, tag int, payload any) {
	select {
	case c.world.pipes[c.rank][dst] <- message{tag, payload}:
	case <-c.world.aborted:
		panic(abortSignal{})
	}
}

// Recv blocks until a message with the given tag arrives from rank src and
// returns its payload. Messages with other tags from the same source are
// held aside in order, so tagged exchanges cannot deadlock on reordering.
func (c *Comm) Recv(src, tag int) any {
	// Each (src,dst) pair is a FIFO used by one receiving goroutine, so a
	// simple scan-with-stash suffices.
	pipe := c.world.pipes[src][c.rank]
	var stash []message
	for {
		var m message
		select {
		case m = <-pipe:
		case <-c.world.aborted:
			panic(abortSignal{})
		case <-c.world.left[src]: // what src sent before it returned is still here
			select {
			case m = <-pipe:
			case <-c.world.aborted: // src failed: its error is the world's
				panic(abortSignal{})
			default:
				panic(abortSignal{fmt.Errorf("mpi: rank %d waits in Recv(%d, %d) on a rank that returned", c.rank, src, tag)})
			}
		}
		if m.tag == tag {
			// Requeue stashed messages in order.
			for _, s := range stash {
				pipe <- s
			}
			return m.payload
		}
		stash = append(stash, m)
	}
}

// Barrier blocks until every rank has entered the barrier.
func (c *Comm) Barrier() {
	w := c.world
	w.barrierMu.Lock()
	defer w.barrierMu.Unlock()
	if w.gone > 0 && !w.down {
		panic(abortSignal{fmt.Errorf("mpi: rank %d entered a collective after a rank returned", c.rank)})
	}
	gen := w.barrierGen
	w.barrierN++
	if w.barrierN == w.size {
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

// abortSignal unwinds a rank; err is its own fault, nil if another's abort.
type abortSignal struct{ err error }

// leave records that rank returned with *err (or while others wait in a
// barrier: an error too). An error aborts the world, as MPI_Abort does, and
// before left[rank] closes: all blocked in Send, Recv or Barrier unwind.
func (w *World) leave(rank int, err *error) {
	w.barrierMu.Lock()
	defer w.barrierMu.Unlock()
	if *err == nil && w.barrierN > 0 && !w.down {
		*err = fmt.Errorf("mpi: rank %d returned while %d rank(s) wait in a collective", rank, w.barrierN)
	}
	if *err != nil && !w.down {
		w.down = true
		close(w.aborted)
		w.barrierC.Broadcast()
	}
	w.gone++
	close(w.left[rank])
}

// gatherSlot is a rank's contribution to one collective round.
type gatherSlot struct {
	rank int
	val  any
}

// AllGather collects each rank's value and returns the slice indexed by
// rank, identical on every rank.
func (c *Comm) AllGather(val any) []any {
	w := c.world
	gen := c.redGen
	c.redGen++
	key := gen
	w.reduceMu.Lock()
	if w.reduceBuf[key] == nil {
		w.reduceBuf[key] = make([]any, w.size)
	}
	w.reduceBuf[key][c.rank] = gatherSlot{c.rank, val}
	w.reduceMu.Unlock()
	c.Barrier()
	w.reduceMu.Lock()
	buf := w.reduceBuf[key]
	w.reduceMu.Unlock()
	out := make([]any, w.size)
	for i, s := range buf {
		out[i] = s.(gatherSlot).val
	}
	c.Barrier() // all ranks copied before anyone reuses the slot
	if c.rank == 0 {
		w.reduceMu.Lock()
		delete(w.reduceBuf, key)
		w.reduceMu.Unlock()
	}
	return out
}

// AllReduceFloat64 combines each rank's value with op (associative and
// commutative) and returns the result on every rank.
//
// The reduction order is deterministic: values are folded in rank order
// (((v0 op v1) op v2) ... op vN-1), regardless of the order in which
// ranks arrive at the collective. AllGather stores each contribution in
// its rank's slot, so goroutine scheduling cannot reorder the fold.
// Floating-point addition is not associative — a scheduling-dependent
// order would make campaign results differ bit-for-bit run to run,
// breaking the bit-identical-restart contract the checkpoint layer
// verifies. Every rank computes the same fold over the same slice, so
// all ranks return bit-identical results. Pinned by
// TestAllReduceDeterministicOrder.
func (c *Comm) AllReduceFloat64(val float64, op func(a, b float64) float64) float64 {
	all := c.AllGather(val)
	acc := all[0].(float64)
	for _, v := range all[1:] {
		acc = op(acc, v.(float64))
	}
	return acc
}

// AllReduceSum sums a float64 across all ranks.
func (c *Comm) AllReduceSum(val float64) float64 {
	return c.AllReduceFloat64(val, func(a, b float64) float64 { return a + b })
}

// alltoallTag is reserved for AllToAll exchanges.
const alltoallTag = -7701

// AllToAll sends out[d] to rank d and returns in[s] received from each rank
// s. Every rank must call it in the same superstep.
func (c *Comm) AllToAll(out []any) []any {
	if len(out) != c.Size() {
		panic(fmt.Sprintf("mpi: AllToAll payload count %d != world size %d", len(out), c.Size()))
	}
	for d := 0; d < c.Size(); d++ {
		if d == c.rank {
			continue
		}
		c.Send(d, alltoallTag, out[d])
	}
	in := make([]any, c.Size())
	in[c.rank] = out[c.rank]
	for s := 0; s < c.Size(); s++ {
		if s == c.rank {
			continue
		}
		in[s] = c.Recv(s, alltoallTag)
	}
	c.Barrier()
	return in
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
