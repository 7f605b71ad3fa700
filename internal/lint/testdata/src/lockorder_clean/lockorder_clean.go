// Package lockorder_clean holds correct locking patterns the lockorder
// analyzer must not flag: consistent nesting, locks taken on every arm
// of a branch before a shared unlock, lock/unlock inside loops, and
// defer-based early returns. These pin the flow-sensitive joins — a
// token-order checker would false-positive on several of them.
package lockorder_clean

import "sync"

type Pool struct{ mu sync.Mutex }

var (
	big   sync.Mutex
	small sync.Mutex
)

// Nested and NestedAgain acquire in the same order: no inversion.
func Nested() {
	big.Lock()
	defer big.Unlock()
	small.Lock()
	defer small.Unlock()
}

func NestedAgain() {
	big.Lock()
	small.Lock()
	small.Unlock()
	big.Unlock()
}

// BothArms locks on every path into the unlock: must-held at the join.
func BothArms(c bool, p *Pool) {
	if c {
		p.mu.Lock()
	} else {
		p.mu.Lock()
	}
	p.mu.Unlock()
}

// SplitUnlock unlocks exactly once on each path.
func SplitUnlock(c bool, p *Pool) {
	p.mu.Lock()
	if c {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
}

// Loop pairs lock/unlock per iteration; the back edge joins clean.
func Loop(p *Pool, n int) {
	for i := 0; i < n; i++ {
		p.mu.Lock()
		p.mu.Unlock()
	}
}

// Early releases via defer on both the early and the normal return.
func Early(p *Pool, c bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c {
		return 1
	}
	return 0
}

// TwoInstances locks two values of the same type; their global keys
// coincide, so no self-edge (instance order is not checkable).
func TwoInstances(p, q *Pool) {
	p.mu.Lock()
	q.mu.Lock()
	q.mu.Unlock()
	p.mu.Unlock()
}

// DeferredClosure releases inside a deferred literal: the literal runs
// at the function's exit, under the lock its parent still holds, so
// neither the unlock in it nor the returns before it are findings.
func DeferredClosure(p *Pool, c bool) (n int) {
	p.mu.Lock()
	defer func() {
		p.mu.Unlock()
	}()
	if c {
		return 1
	}
	return 0
}
