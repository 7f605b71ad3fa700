// Positive fixture: leaked locks and channel ops under locks (package
// transit is in the rank-exchange set).
package transit

import "sync"

type Stage struct {
	mu sync.Mutex
	ch chan int
	n  int
}

func (s *Stage) LeakOnFallthrough() int {
	s.mu.Lock() // want `s.mu.Lock\(\) without a matching Unlock before the function ends`
	return s.n  // want `return while s.mu is locked`
}

func (s *Stage) LeakOnEarlyReturn(cond bool) {
	s.mu.Lock()
	if cond {
		return // want `return while s.mu is locked`
	}
	s.mu.Unlock()
}

func (s *Stage) SendUnderLock(v int) {
	s.mu.Lock()
	s.ch <- v // want `channel send while holding s.mu`
	s.mu.Unlock()
}

func (s *Stage) ReceiveUnderLock() int {
	s.mu.Lock()
	v := <-s.ch // want `channel receive while holding s.mu`
	s.mu.Unlock()
	return v
}
