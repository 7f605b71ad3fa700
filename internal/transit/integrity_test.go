package transit

import (
	"errors"
	"testing"

	"repro/internal/integrity"
)

func TestPutFillsChecksumForByteSlices(t *testing.T) {
	s, err := NewStage(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("level 2 payload")
	if err := s.Put(Item{Key: "a", Bytes: int64(len(data)), Payload: data}); err != nil {
		t.Fatal(err)
	}
	if item := take(t, s); item.Sum != integrity.Sum(data) {
		t.Errorf("delivered sum %q, want content address", item.Sum)
	}
	// Non-byte payloads pass through without a checksum.
	if err := s.Put(Item{Key: "b", Bytes: 4, Payload: 42}); err != nil {
		t.Fatal(err)
	}
	if item := take(t, s); item.Sum != "" {
		t.Errorf("non-byte payload got sum %q", item.Sum)
	}
}

func TestTakeRejectsCorruptAtRestPayload(t *testing.T) {
	s, err := NewStage(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	// The staged copy itself is poisoned: its declared Sum never matches,
	// so Take must drop it and return the sentinel.
	data := []byte("poisoned payload")
	if err := s.Put(Item{Key: "bad", Bytes: int64(len(data)), Payload: data,
		Sum: integrity.Sum([]byte("what the producer meant to stage"))}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Take(); !errors.Is(err, ErrItemChecksum) {
		t.Fatalf("Take = %v, want ErrItemChecksum", err)
	}
	if s.used != 0 || len(s.queue) != 0 || len(s.inflight) != 0 {
		t.Errorf("used %d, queued %d, in flight %d: the corrupt item was not dropped", s.used, len(s.queue), len(s.inflight))
	}
}
