package transit

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// A worker error must abort the stage so producers blocked on a full
// device unblock instead of hanging forever. Two staged items and one
// worker make it deterministic: the worker's only Take frees 50 of the
// 90 bytes b needs, so the blocked Put can end only through the abort.
func TestWorkerErrorAbortsStageAndUnblocksProducer(t *testing.T) {
	s, _ := NewStage(100)
	for _, key := range []string{"a1", "a2"} {
		if err := s.Put(Item{Key: key, Bytes: 50}); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := errors.New("analysis exploded")
	producerDone := make(chan error, 1)
	go func() {
		// Device is full: this Put blocks until the abort releases it.
		producerDone <- s.Put(Item{Key: "b", Bytes: 90})
	}()
	for s.Stats().StallCount != 1 {
		time.Sleep(time.Millisecond)
	}
	err := Consume(s, 1, func(Item) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("Consume err = %v", err)
	}
	select {
	case perr := <-producerDone:
		if !errors.Is(perr, sentinel) {
			t.Errorf("blocked Put err = %v, want the abort error", perr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("producer still blocked after worker error — the hang the abort path must prevent")
	}
	if s.Err() == nil {
		t.Error("stage not marked aborted")
	}
}

func TestAbortUnblocksBlockedGet(t *testing.T) {
	s, _ := NewStage(10)
	sentinel := errors.New("fatal")
	done := make(chan error, 1)
	go func() {
		_, err := s.Get()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Abort(sentinel)
	if err := <-done; !errors.Is(err, sentinel) {
		t.Errorf("Get err = %v", err)
	}
	// Abort is first-wins and nil maps to ErrClosed.
	s.Abort(errors.New("other"))
	if !errors.Is(s.Err(), sentinel) {
		t.Errorf("Err = %v, want first abort to win", s.Err())
	}
}

// A consumer that dies mid-item redelivers the item: nothing is lost, the
// item reaches a surviving worker, and the stage records the redelivery.
func TestDyingConsumerRedeliversItem(t *testing.T) {
	s, _ := NewStage(1000)
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Put(Item{Key: fmt.Sprint(i), Bytes: 10}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	var processed sync.Map
	var count atomic.Int64
	died := atomic.Bool{}
	err := Consume(s, 3, func(item Item) error {
		// Exactly one worker dies, on the first delivery of item 5.
		if item.Key == "5" && item.Delivery == 0 && died.CompareAndSwap(false, true) {
			return ErrConsumerDied
		}
		if _, dup := processed.LoadOrStore(item.Key, true); dup {
			return fmt.Errorf("duplicate %s", item.Key)
		}
		count.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != n {
		t.Errorf("processed %d of %d — the dying consumer's item was lost", count.Load(), n)
	}
	st := s.Stats()
	if st.Redelivered != 1 {
		t.Errorf("redelivered = %d, want 1", st.Redelivered)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("stage not drained: %+v", st)
	}
}

func TestAllWorkersDyingAbortsStage(t *testing.T) {
	s, _ := NewStage(1000)
	for i := 0; i < 5; i++ {
		if err := s.Put(Item{Key: fmt.Sprint(i), Bytes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	producerDone := make(chan error, 1)
	go func() {
		// Keep producing; must not hang when every consumer is gone.
		for {
			if err := s.Put(Item{Key: "more", Bytes: 1}); err != nil {
				producerDone <- err
				return
			}
		}
	}()
	err := Consume(s, 2, func(Item) error { return ErrConsumerDied })
	if !errors.Is(err, ErrConsumerDied) {
		t.Errorf("Consume err = %v", err)
	}
	select {
	case perr := <-producerDone:
		if !errors.Is(perr, ErrConsumerDied) {
			t.Errorf("producer err = %v", perr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("producer hung after all workers died")
	}
}

// The fault-injected pipeline under -race: concurrent producers, consumers
// that die probabilistically (seeded, keyed by item+delivery), redelivery
// keeping every surviving item exactly-once.
func TestConsumeWithInjectedAbortsUnderLoad(t *testing.T) {
	// Deaths are deterministic: an item kills its consumer on delivery d
	// iff the (key, d) draw aborts, independent of scheduling. This seed
	// and rate yield exactly 4 deaths over the 200 keys, so 4 of the 8
	// workers survive to finish the drain.
	inj := fault.MustNew(fault.Profile{Seed: 11, ConsumerAbortProb: 0.02})
	s, _ := NewStage(64)
	const producers, itemsEach, workers = 4, 50, 8
	var processed sync.Map
	var count atomic.Int64
	consumerDone := make(chan error, 1)
	go func() {
		consumerDone <- Consume(s, workers, func(item Item) error {
			if inj.ConsumerAbort(item.Key, item.Delivery) {
				return ErrConsumerDied
			}
			if _, dup := processed.LoadOrStore(item.Key, true); dup {
				return fmt.Errorf("duplicate %s", item.Key)
			}
			count.Add(1)
			return nil
		})
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < itemsEach; i++ {
				if err := s.Put(Item{Key: fmt.Sprintf("p%d/i%d", p, i), Bytes: 8}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	s.Close()
	if err := <-consumerDone; err != nil {
		t.Fatal(err)
	}
	// Every item must be processed exactly once: aborted deliveries are
	// redelivered with an incremented count and a fresh, independent draw.
	if count.Load() != producers*itemsEach {
		t.Errorf("processed %d of %d", count.Load(), producers*itemsEach)
	}
	if st := s.Stats(); st.Redelivered != 4 {
		t.Errorf("redelivered = %d, want the 4 deterministic deaths", st.Redelivered)
	}
}

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
	// The stage is closed but "a" is in flight: a second Take must wait
	// (the item may yet be redelivered), not return ErrClosed.
	got := make(chan error, 1)
	go func() {
		it, err := s.Take()
		if err == nil {
			s.Ack(it.Key)
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Take returned early with %v while an item was in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	s.Redeliver(item.Key)
	if err := <-got; err != nil {
		t.Errorf("redelivered Take err = %v", err)
	}
	// Now fully drained: Take fails with ErrClosed.
	if _, err := s.Take(); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
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
