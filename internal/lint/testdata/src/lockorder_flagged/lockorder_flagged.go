// Package lockorder_flagged holds the defects the lockorder analyzer
// must catch: double locks (unconditional and path-sensitive),
// read/write self-deadlocks, unlocks of unheld locks, and an AB/BA
// lock-order inversion within one package.
package lockorder_flagged

import "sync"

type Server struct {
	mu    sync.Mutex
	state sync.RWMutex
}

func (s *Server) DoubleLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu.Lock() // want `second s\.mu\.Lock\(\) on a path where s\.mu is already held`
}

func (s *Server) MaybeDouble(c bool) {
	if c {
		s.mu.Lock()
	}
	s.mu.Lock() // want `second s\.mu\.Lock\(\) on a path where s\.mu is already held`
	s.mu.Unlock()
}

func (s *Server) Upgrade() {
	s.state.RLock()
	s.state.Lock() // want `s\.state\.Lock\(\) on a path where s\.state\.RLock\(\) is held`
	s.state.Unlock()
	s.state.RUnlock()
}

func (s *Server) ReadUnderWrite() {
	s.state.Lock()
	defer s.state.Unlock()
	s.state.RLock() // want `s\.state\.RLock\(\) on a path where s\.state\.Lock\(\) is held`
	s.state.RUnlock()
}

func (s *Server) UnlockCold() {
	s.mu.Unlock() // want `s\.mu\.Unlock\(\) but s\.mu is not held on any path`
}

func (s *Server) UnlockMaybe(c bool) {
	if c {
		s.mu.Lock()
	}
	s.mu.Unlock() // want `s\.mu\.Unlock\(\) but s\.mu is not held on every path`
}

var (
	muA sync.Mutex
	muB sync.Mutex
)

// ForwardOrder establishes muA before muB; BackwardOrder inverts it.
// Both acquisition sites are flagged — each closes the other's cycle.
func ForwardOrder() {
	muA.Lock()
	defer muA.Unlock()
	muB.Lock() // want `lock order inversion`
	muB.Unlock()
}

func BackwardOrder() {
	muB.Lock()
	defer muB.Unlock()
	muA.Lock() // want `lock order inversion`
	muA.Unlock()
}

// UnlockInCalledLiteral is not the deferred-closure shape: the literal
// is called where it stands, so its unlock is judged on its own.
func (s *Server) UnlockInCalledLiteral() {
	func() {
		s.mu.Unlock() // want `s\.mu\.Unlock\(\) but s\.mu is not held on any path`
	}()
}
