// Allowlist fixture: a hand-over-hand locking pattern — the lock is
// taken in one function and released in its callee, which no
// per-function held-lock solution can follow — carries explicit
// suppressions on both sides.
package transit

import "sync"

type Node struct {
	mu   sync.Mutex
	next *Node
	v    int
}

func HandOverHand(n *Node) int {
	//lint:allow lockorder hand-over-hand traversal; unlocked by the callee
	n.mu.Lock()
	//lint:allow lockorder the lock is released inside crawl
	return crawl(n)
}

func crawl(n *Node) int {
	v := n.v
	//lint:allow lockorder hand-over-hand traversal; locked by the caller
	n.mu.Unlock()
	return v
}

func StillFlagged(n *Node) int {
	n.mu.Lock() // want `n.mu.Lock\(\) without a matching Unlock before the function ends`
	return n.v  // want `return while n.mu is locked`
}
