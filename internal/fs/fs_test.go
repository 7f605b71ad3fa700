package fs

import (
	"testing"

	"repro/internal/des"
)

func TestWriteVisibilityTiming(t *testing.T) {
	var sim des.Sim
	s := New(&sim, "lustre")
	var wrote bool
	s.Write("out/step10.gio", 1e9, 60, nil, func() { wrote = true })
	// Not visible before completion.
	sim.RunUntil(59)
	if _, err := s.Stat("out/step10.gio"); err == nil {
		t.Error("file visible before write completed")
	}
	if len(s.List("out/")) != 0 {
		t.Error("List shows unfinished file")
	}
	sim.RunUntil(61)
	if !wrote {
		t.Error("done callback not fired")
	}
	f, err := s.Stat("out/step10.gio")
	if err != nil {
		t.Fatal(err)
	}
	if f.Bytes != 1e9 || f.VisibleAt != 60 {
		t.Errorf("file = %+v", f)
	}
}

func TestListPrefixAndOrder(t *testing.T) {
	var sim des.Sim
	s := New(&sim, "lustre")
	s.Write("out/b", 1, 0, nil, nil)
	s.Write("out/a", 1, 0, nil, nil)
	s.Write("other/c", 1, 0, nil, nil)
	sim.Run()
	got := s.List("out/")
	if len(got) != 2 || got[0] != "out/a" || got[1] != "out/b" {
		t.Errorf("list = %v", got)
	}
}

func TestReadRequiresVisibleFile(t *testing.T) {
	var sim des.Sim
	s := New(&sim, "bb")
	if err := s.Read("missing", 1, func(*File) {}); err == nil {
		t.Error("expected error")
	}
	s.Write("data", 5, 10, "payload", nil)
	sim.RunUntil(10)
	var got *File
	if err := s.Read("data", 7, func(f *File) { got = f }); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if got == nil || got.Payload.(string) != "payload" {
		t.Errorf("read = %+v", got)
	}
	if sim.Now() != 17 {
		t.Errorf("read completed at %v, want 17", sim.Now())
	}
}

func TestDelete(t *testing.T) {
	var sim des.Sim
	s := New(&sim, "lustre")
	s.Write("x", 1, 0, nil, nil)
	sim.Run()
	s.Delete("x")
	if _, err := s.Stat("x"); err == nil {
		t.Error("deleted file still visible")
	}
	s.Delete("x") // idempotent
}

func TestOverwriteReplacesAtCompletion(t *testing.T) {
	var sim des.Sim
	s := New(&sim, "lustre")
	s.Write("f", 100, 0, nil, nil)
	sim.Run()
	s.Write("f", 200, 50, nil, nil)
	sim.RunUntil(25)
	f, err := s.Stat("f")
	if err != nil || f.Bytes != 100 {
		t.Errorf("old file gone early: %+v %v", f, err)
	}
	sim.Run()
	f, _ = s.Stat("f")
	if f.Bytes != 200 {
		t.Errorf("overwrite missing: %+v", f)
	}
}
