package ckpt

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// openBytes writes data to a fresh journal file, replays it with Open,
// and returns the records and the bytes Open left on disk.
func openBytes(t *testing.T, dir, name string, data []byte) ([]Record, []byte) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs, disk
}

// FuzzJournalOpen holds journal replay to its crash contract on any
// file content: Open returns rather than panics; it leaves on disk
// exactly the frames it accepted — a prefix of the input, one line per
// record, each line the payload, a space and the payload's CRC32 as
// eight lowercase hex digits; replaying that file again is a no-op; and
// any byte prefix of it (a crash at any point of the appends that wrote
// it) opens to the records of its complete lines. Open is OpenLog over
// Records, so this also holds the integrity ledger's replay.
func FuzzJournalOpen(f *testing.F) {
	var valid []byte
	for _, r := range []Record{
		{Kind: KindMeta, Name: "camp", Timesteps: 4, Seed: 1, FaultSeed: 2},
		{Kind: KindRun},
		{Kind: KindStep, Step: 3, Path: "step003.l2.gio", Bytes: 100, CRC: 0xbeef},
	} {
		line, err := Frame(r)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, line...)
	}
	f.Add(valid, uint(len(valid)/2))
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		dir := t.TempDir()
		recs, disk := openBytes(t, dir, "j.wal", data)

		if !bytes.HasPrefix(data, disk) {
			t.Fatalf("Open left %d bytes that are not a prefix of the input", len(disk))
		}
		lines := bytes.SplitAfter(disk, []byte("\n"))
		if len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1]
		}
		if len(lines) != len(recs) {
			t.Fatalf("%d records from %d lines left on disk", len(recs), len(lines))
		}
		for i, line := range lines {
			sp := bytes.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("accepted line %d has no CRC field: %q", i, line)
			}
			payload := line[:sp]
			if want := fmt.Sprintf("%s %08x\n", payload, crc32.ChecksumIEEE(payload)); string(line) != want {
				t.Fatalf("accepted line %d is %q, Frame writes %q", i, line, want)
			}
		}

		again, disk2 := openBytes(t, dir, "j.wal", disk)
		if !slices.Equal(again, recs) || !bytes.Equal(disk2, disk) {
			t.Fatalf("reopen is not idempotent: %d records, %d bytes, then %d records, %d bytes",
				len(recs), len(disk), len(again), len(disk2))
		}

		prefix := disk[:cut%uint(len(disk)+1)]
		complete := bytes.Count(prefix, []byte("\n"))
		got, _ := openBytes(t, dir, "prefix.wal", prefix)
		if !slices.Equal(got, recs[:complete]) {
			t.Fatalf("a %d-byte prefix with %d complete lines opened to %d records", len(prefix), complete, len(got))
		}
	})
}
