package transit

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewStageValidation(t *testing.T) {
	if _, err := NewStage(0); err == nil {
		t.Error("expected capacity error")
	}
}

func TestPutGetFIFO(t *testing.T) {
	s, err := NewStage(1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(Item{Key: fmt.Sprint(i), Bytes: 10, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		item := take(t, s)
		if item.Payload.(int) != i {
			t.Errorf("got %v, want %d", item.Payload, i)
		}
	}
	if s.used != 0 || len(s.queue) != 0 || len(s.inflight) != 0 {
		t.Errorf("used %d, queued %d, in flight %d after draining", s.used, len(s.queue), len(s.inflight))
	}
}

// take is Take and Ack, failing the test on an error.
func take(t *testing.T, s *Stage) Item {
	t.Helper()
	item, err := s.Take()
	if err != nil {
		t.Fatal(err)
	}
	s.Ack(item.Key)
	return item
}

func TestPutRejectsOversized(t *testing.T) {
	s, _ := NewStage(100)
	if err := s.Put(Item{Key: "big", Bytes: 101}); err == nil {
		t.Error("expected oversize error")
	}
	if err := s.Put(Item{Key: "neg", Bytes: -1}); err == nil {
		t.Error("expected negative error")
	}
}

// A full device throttles the producer until a consumer drains — the
// in-transit backpressure behaviour.
func TestBackpressure(t *testing.T) {
	s, _ := NewStage(100)
	if err := s.Put(Item{Key: "a", Bytes: 80}); err != nil {
		t.Fatal(err)
	}
	var produced atomic.Bool
	done := make(chan error, 1)
	go func() {
		err := s.Put(Item{Key: "b", Bytes: 80}) // must wait
		produced.Store(true)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if produced.Load() {
		t.Fatal("producer did not block on full device")
	}
	take(t, s)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s.used != 80 {
		t.Errorf("used = %d, want the second item's 80", s.used)
	}
}

func TestCloseDrainsThenFails(t *testing.T) {
	s, _ := NewStage(100)
	if err := s.Put(Item{Key: "a", Bytes: 10, Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Drain the remaining item.
	if item := take(t, s); item.Payload.(string) != "x" {
		t.Fatalf("drained %v, want x", item)
	}
	if _, err := s.Take(); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if err := s.Put(Item{Key: "late", Bytes: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("late put err = %v", err)
	}
	s.Close() // idempotent
}

func TestCloseUnblocksBlockedGet(t *testing.T) {
	s, _ := NewStage(10)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Take(); !errors.Is(err, ErrClosed) {
			t.Errorf("blocked Take err = %v", err)
		}
	}()
	time.Sleep(30 * time.Millisecond)
	s.Close()
	wg.Wait()
}

func TestCloseUnblocksBlockedPut(t *testing.T) {
	s, _ := NewStage(10)
	if err := s.Put(Item{Key: "a", Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Put(Item{Key: "b", Bytes: 10}); !errors.Is(err, ErrClosed) {
			t.Errorf("blocked Put err = %v", err)
		}
	}()
	time.Sleep(30 * time.Millisecond)
	s.Close()
	wg.Wait()
}

// Producer/consumer pipeline: everything staged is consumed exactly once,
// across multiple workers, under capacity pressure.
func TestConsumeAllItemsOnce(t *testing.T) {
	s, _ := NewStage(50) // tight device: forces stalls
	const n, workers = 200, 4
	var seen sync.Map
	var count atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				item, err := s.Take()
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Error(err)
					}
					return
				}
				if _, dup := seen.LoadOrStore(item.Key, true); dup {
					t.Errorf("duplicate %s", item.Key)
				}
				count.Add(1)
				s.Ack(item.Key)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := s.Put(Item{Key: fmt.Sprint(i), Bytes: 10}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	wg.Wait()
	if count.Load() != n {
		t.Errorf("consumed %d of %d", count.Load(), n)
	}
}

// After Close, a Take waits while an item is in flight, and returns
// ErrClosed once the last one is acked.
func TestTakeBlocksOnInFlightUntilResolved(t *testing.T) {
	s, _ := NewStage(100)
	if err := s.Put(Item{Key: "a", Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	item, err := s.Take()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	got := make(chan error, 1)
	go func() {
		_, err := s.Take()
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Take returned early with %v while an item was in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	s.Ack(item.Key)
	if err := <-got; !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed after the final Ack", err)
	}
}

func TestAckAfterCloseReleasesWaiters(t *testing.T) {
	s, _ := NewStage(100)
	if err := s.Put(Item{Key: "a", Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	item, err := s.Take()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	got := make(chan error, 1)
	go func() {
		_, err := s.Take()
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Ack(item.Key)
	if err := <-got; !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed after final Ack", err)
	}
}
