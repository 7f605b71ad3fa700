// Package transit implements a bounded in-memory staging area between a
// producer and analysis consumers — the device of the paper's
// hypothetical third workflow variant: "Instead of writing out the Level 2
// data that require further analysis to disk, the data is now stored on a
// separate memory device and the analysis is done in-transit" (§4.2). The
// paper could not test this ("We did not have access to any machines that
// would have allowed us to carry out this test"). The campaign model
// (core.CombinedInTransit) does not import this package; bench drives it.
//
// The staging area enforces a byte capacity: producers block when the
// device is full (the simulation stalls if analysis cannot drain fast
// enough — the real operational risk of in-transit designs), and consumers
// block until data arrives. An item handed out by Take stays in flight
// until Ack'd. Closing the stage drains the queued items; once none is
// queued or in flight, Take returns ErrClosed.
package transit

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/integrity"
)

// Item is one staged data product.
type Item struct {
	// Key identifies the product (e.g. "step030/halo42").
	Key string
	// Bytes is the accounted size.
	Bytes int64
	// Payload is the in-memory product, handed over zero-copy.
	Payload any
	// Sum is the content address (integrity.Sum) of a []byte payload. Put
	// fills it; Take verifies the staged bytes against it, so a payload
	// corrupted on the staging device never reaches analysis unnoticed.
	Sum string
}

// ErrClosed is returned by Put after Close and by Take once the stage is
// closed and drained.
var ErrClosed = errors.New("transit: stage closed")

// ErrItemChecksum is returned by Take when an item's payload fails its
// content checksum: the staged copy is corrupt, and the item is dropped
// rather than handed to analysis.
var ErrItemChecksum = errors.New("transit: item payload fails its checksum")

// Stage is a bounded in-memory staging device.
type Stage struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	capacity int64
	used     int64
	queue    []Item
	inflight map[string]bool
	closed   bool
}

// NewStage creates a staging area holding at most capacity bytes.
func NewStage(capacity int64) (*Stage, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("transit: capacity %d must be positive", capacity)
	}
	s := &Stage{capacity: capacity, inflight: map[string]bool{}}
	s.notFull = sync.NewCond(&s.mu)
	s.notEmpty = sync.NewCond(&s.mu)
	return s, nil
}

// Put stages an item, blocking while the device lacks room. Items larger
// than the whole device are rejected outright.
func (s *Stage) Put(item Item) error {
	if item.Bytes < 0 {
		return fmt.Errorf("transit: negative size %d", item.Bytes)
	}
	if item.Bytes > s.capacity {
		return fmt.Errorf("transit: item %q (%d bytes) exceeds device capacity %d", item.Key, item.Bytes, s.capacity)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && s.used+item.Bytes > s.capacity {
		s.notFull.Wait()
	}
	if s.closed {
		return ErrClosed
	}
	if data, ok := item.Payload.([]byte); ok && item.Sum == "" {
		item.Sum = integrity.Sum(data)
	}
	s.queue = append(s.queue, item)
	s.used += item.Bytes
	s.notEmpty.Signal()
	return nil
}

// drained reports (holding mu) whether nothing can ever arrive again: the
// stage is closed, the queue is empty, and no item is in flight.
func (s *Stage) drained() bool {
	return s.closed && len(s.queue) == 0 && len(s.inflight) == 0
}

// Take removes the oldest staged item and records it in flight until Ack.
// It blocks until an item is available; after Close it drains the
// remaining items, waits for the in-flight ones, then returns ErrClosed.
//
// A []byte payload is verified end to end against Item.Sum as it crosses
// the device boundary. A payload that fails the check is corrupt on the
// device itself, so re-reading it cannot help: Take drops it and returns
// ErrItemChecksum rather than hand poison to analysis.
func (s *Stage) Take() (Item, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.drained() {
		s.notEmpty.Wait()
	}
	if len(s.queue) == 0 {
		return Item{}, ErrClosed
	}
	item := s.queue[0]
	s.queue = s.queue[1:]
	s.used -= item.Bytes
	s.notFull.Broadcast()
	if data, ok := item.Payload.([]byte); ok && item.Sum != "" && integrity.Sum(data) != item.Sum {
		return Item{}, fmt.Errorf("transit: item %q: %w", item.Key, ErrItemChecksum)
	}
	s.inflight[item.Key] = true
	return item, nil
}

// Ack marks an in-flight item fully processed. Unknown keys are ignored.
func (s *Stage) Ack(key string) {
	s.mu.Lock()
	delete(s.inflight, key)
	if s.drained() {
		// Last in-flight item resolved after Close: release consumers
		// blocked waiting for it in Take.
		s.notEmpty.Broadcast()
	}
	s.mu.Unlock()
}

// Close marks the stage finished: pending Puts fail, pending Takes drain
// then fail. Idempotent.
func (s *Stage) Close() {
	s.mu.Lock()
	s.closed = true
	s.notFull.Broadcast()
	s.notEmpty.Broadcast()
	s.mu.Unlock()
}
