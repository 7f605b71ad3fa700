package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	want := []Record{
		{Kind: KindMeta, Name: "camp", Timesteps: 8, Seed: 1, FaultSeed: 2},
		{Kind: KindRun},
		{Kind: KindStep, Step: 1, Path: "step001.l2.gio", Bytes: 100, CRC: 0xdead},
		{Kind: KindPost, Step: 1, Path: "step001.centers", Bytes: 40, CRC: 0xbeef},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// A crash mid-append leaves a torn last line; replay must keep the valid
// prefix and truncate the tail so appends resume cleanly.
func TestJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindStep, Step: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindStep, Step: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the tail: drop the last 5 bytes of the file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Step != 1 {
		t.Fatalf("want only step 1 to survive, got %+v", recs)
	}
	// Appends after recovery land after the truncated point.
	if err := j2.Append(Record{Kind: KindStep, Step: 3}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, recs, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Step != 3 {
		t.Fatalf("after recovery append: %+v", recs)
	}
}

// A corrupt record in the middle invalidates everything after it.
func TestJournalStopsAtCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _, _ := Open(path)
	for s := 1; s <= 3; s++ {
		if err := j.Append(Record{Kind: KindStep, Step: s}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = strings.Replace(lines[1], `"step":2`, `"step":9`, 1) // payload no longer matches CRC
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("want 1 surviving record, got %d", len(recs))
	}
}

func TestManifestReplay(t *testing.T) {
	m := Replay([]Record{
		{Kind: KindMeta, Name: "c", Timesteps: 4, Seed: 7, FaultSeed: 3},
		{Kind: KindRun},
		{Kind: KindStep, Step: 1, Path: "a"},
		{Kind: KindStep, Step: 2, Path: "b"},
		{Kind: KindPost, Step: 1, Path: "p"},
		{Kind: KindRun},
		{Kind: KindStep, Step: 4, Path: "d"}, // gap: step 3 missing
		{Kind: "seen", Path: "x.l2.gio"},     // a retired listener kind: ignored
	})
	if m.Generation != 2 {
		t.Errorf("generation = %d", m.Generation)
	}
	if got := m.CompletedSteps(); got != 2 {
		t.Errorf("contiguous completed steps = %d, want 2", got)
	}
	if err := m.CheckMeta("c", 4, 7, 3); err != nil {
		t.Errorf("matching meta rejected: %v", err)
	}
	if err := m.CheckMeta("c", 5, 7, 3); err == nil {
		t.Error("mismatched timesteps accepted")
	}
}

func TestWriteFileAtomicAndVerify(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileAtomic(path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("world!")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "world!" {
		t.Fatalf("atomic overwrite: %q, %v", data, err)
	}
	// No temp droppings remain after successful commits.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("stray files: %v", entries)
	}

	j, _, err := Open(filepath.Join(dir, "j.wal"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := j.Commit(Record{Kind: KindStep, Step: 1, Path: "prod.dat"}, dir, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(dir, rec); err != nil {
		t.Errorf("fresh commit fails verify: %v", err)
	}
	// Tamper with the product: verification must notice.
	if err := os.WriteFile(filepath.Join(dir, "prod.dat"), []byte("payl0ad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(dir, rec); err == nil {
		t.Error("tampered product passed verification")
	}
	j.Close()
}

func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"keep.gio", "a.gio.tmp123", "b.tmp9"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	RemoveStaleTemps(dir)
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 || entries[0].Name() != "keep.gio" {
		t.Fatalf("after cleanup: %v", entries)
	}
}

func TestVerifyFileTypedChecksumError(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(filepath.Join(dir, "j.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec, err := j.Commit(Record{Kind: KindStep, Step: 1, Path: "prod.dat"}, dir, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// Same length, different bytes: the CRC mismatch is ErrManifestChecksum.
	if err := os.WriteFile(filepath.Join(dir, "prod.dat"), []byte("payl0ad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(dir, rec); !errors.Is(err, ErrManifestChecksum) {
		t.Errorf("CRC mismatch error %v is not ErrManifestChecksum", err)
	}
	// Different length: also ErrManifestChecksum.
	if err := os.WriteFile(filepath.Join(dir, "prod.dat"), []byte("pay"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(dir, rec); !errors.Is(err, ErrManifestChecksum) {
		t.Errorf("size mismatch error %v is not ErrManifestChecksum", err)
	}
	// A missing file is a different failure (crash artifact, not rot).
	if err := os.Remove(filepath.Join(dir, "prod.dat")); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(dir, rec); err == nil || errors.Is(err, ErrManifestChecksum) {
		t.Errorf("missing-file error %v must not be ErrManifestChecksum", err)
	}
}

func TestRemoveStaleTempsSweepsQuarantine(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"keep.gio", "rotted.gio.quarantine", "old.centers.quarantine", "c.tmp1"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	RemoveStaleTemps(dir)
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 || entries[0].Name() != "keep.gio" {
		t.Fatalf("after cleanup: %v", entries)
	}
}

func TestFrameParseFrameRoundTrip(t *testing.T) {
	type payload struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	line, err := Frame(payload{Name: "x", N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("frame is not newline-terminated")
	}
	var got payload
	if !parseFrame(strings.TrimSuffix(string(line), "\n"), &got) {
		t.Fatal("round trip failed")
	}
	if got.Name != "x" || got.N != 7 {
		t.Fatalf("round trip = %+v", got)
	}
	// A flipped payload byte fails the CRC.
	bad := []byte(strings.TrimSuffix(string(line), "\n"))
	bad[2] ^= 0x01
	if parseFrame(string(bad), &got) {
		t.Error("corrupt frame parsed")
	}
	// A torn line fails.
	if parseFrame(string(line[:len(line)/2]), &got) {
		t.Error("torn frame parsed")
	}
	// Frame writes the CRC in lower case, so the same CRC in upper case
	// is a flipped bit 0x20, not an alternative spelling.
	var r Record
	if !parseFrame(`{"kind":"step","step":3} 9b099e17`, &r) || r.Step != 3 {
		t.Fatalf("valid frame rejected: %+v", r)
	}
	if parseFrame(`{"kind":"step","step":3} 9B099E17`, &r) {
		t.Error("upper-case CRC parsed")
	}
}
