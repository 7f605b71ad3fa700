// Package dparallel provides the portable data-parallel layer, in the style
// of PISTON/VTK-m (and the underlying Thrust library), that the paper's
// analysis algorithms and this repository's PM kernels are written against.
//
// The central idea reproduced here is that a single implementation of an
// algorithm, expressed against a parallel-for substrate, can be retargeted
// to different execution backends without change. The paper compiles the
// same PISTON source to CUDA, OpenMP and TBB backends; this package offers
// a Serial backend and a Parallel backend that feeds chunks of work to a
// pool of parked worker goroutines.
package dparallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Backend is an execution target. ForRange is the only primitive a backend
// must supply; MinIndex is built on top of it, mirroring how Thrust builds
// its algorithm library above a minimal parallel-for substrate.
type Backend interface {
	// Name identifies the backend in logs and benchmark labels.
	Name() string
	// ForRange invokes fn(lo, hi) over disjoint subranges covering [0, n)
	// and returns when every call has. Calls may run concurrently; fn must
	// be safe for the index ranges it is given.
	ForRange(n int, fn func(lo, hi int))
}

// Serial executes every primitive on the calling goroutine. It is the
// reference backend: all other backends must produce results identical to
// it.
type Serial struct{}

// Name implements Backend.
func (Serial) Name() string { return "serial" }

// ForRange implements Backend.
func (Serial) ForRange(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	fn(0, n)
}

// Parallel splits a range into one chunk per worker. The zero value uses
// GOMAXPROCS workers; with one worker every call runs inline.
type Parallel struct {
	// NumWorkers is the number of concurrent chunks; if <= 0,
	// runtime.GOMAXPROCS(0) is used.
	NumWorkers int
	// MinChunk is the smallest amount of work given to a single worker.
	// Ranges shorter than MinChunk run serially. If <= 0 a default of 1024
	// is used, which keeps dispatch overhead negligible for the particle
	// workloads in this repository.
	MinChunk int
}

// Name implements Backend.
func (p Parallel) Name() string { return fmt.Sprintf("parallel(%d)", p.workers()) }

func (p Parallel) workers() int {
	if p.NumWorkers > 0 {
		return p.NumWorkers
	}
	return runtime.GOMAXPROCS(0)
}

func (p Parallel) minChunk() int {
	if p.MinChunk > 0 {
		return p.MinChunk
	}
	return 1024
}

// ForRange implements Backend. Each chunk goes to a parked worker if one
// is waiting and runs on the caller otherwise, so a nested or concurrent
// call never waits for a busy worker; the caller then blocks until every
// chunk is done. A call allocates nothing beyond what fn already is.
func (p Parallel) ForRange(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := min(p.workers(), (n+p.minChunk()-1)/p.minChunk())
	if chunks <= 1 {
		fn(0, n)
		return
	}
	pool.grow(chunks)
	var wg *sync.WaitGroup
	select {
	case wg = <-pool.waits:
	default:
		wg = new(sync.WaitGroup)
	}
	wg.Add(chunks)
	for c := 0; c < chunks; c++ {
		t := task{fn, c * n / chunks, (c + 1) * n / chunks, wg}
		select {
		case pool.tasks <- t:
		default:
			t.run()
		}
	}
	wg.Wait()
	select {
	case pool.waits <- wg:
	default:
	}
}

// task is one chunk of a ForRange call.
type task struct {
	fn     func(lo, hi int)
	lo, hi int
	done   *sync.WaitGroup
}

func (t task) run() {
	t.fn(t.lo, t.hi)
	t.done.Done()
}

// workers holds the worker goroutines, started on first need and parked on
// the unbuffered tasks channel for the life of the process: a send succeeds
// only when one of them is waiting. waits recycles the per-call WaitGroups
// (a free list, not a sync.Pool, which drops entries at every GC and at
// random under -race); 16 covers the callers in flight at once here (the
// mpi ranks and the kernels they call), and a call beyond it allocates.
type workers struct {
	mu      sync.Mutex
	started atomic.Int64
	tasks   chan task
	waits   chan *sync.WaitGroup
}

var pool = &workers{tasks: make(chan task), waits: make(chan *sync.WaitGroup, 16)}

// grow starts workers until there are at least w.
func (p *workers) grow(w int) {
	if p.started.Load() >= int64(w) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for ; p.started.Load() < int64(w); p.started.Add(1) {
		go func() {
			for t := range p.tasks {
				t.run()
			}
		}()
	}
}

// Default is the backend used when a caller names none. It is a Parallel
// backend sized to the machine.
var Default Backend = Parallel{}
