package ckpt

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// ErrManifestChecksum reports a journaled file whose on-disk bytes no
// longer match the journal record (size or CRC32) — the signature of
// silent corruption behind the journal's back. Matchable with errors.Is;
// the integrity layer keys its quarantine-and-repair path off it.
var ErrManifestChecksum = errors.New("ckpt: journaled file fails its manifest checksum")

// WriteFileAtomic commits data to path with the temp-file-and-rename
// protocol: the bytes are written to a temporary file in the same
// directory, fsync'd, renamed over the destination, and the directory is
// fsync'd so the rename itself is durable. A crash at any point leaves
// either the old file (or nothing) or the complete new file — never a
// torn final file.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("ckpt: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: rename %s: %w", path, err)
	}
	// Durable rename: fsync the containing directory (best-effort on
	// platforms where directories cannot be opened for sync).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Commit atomically writes a product file and journals it in one motion:
// first the file (atomic rename), then the fsync'd record carrying its
// size and CRC32. Write-ahead in the only direction that matters — a
// crash between the two leaves a complete file without a record, which
// replay treats as not-done and redoes (the redo overwrites atomically,
// so the retry is idempotent).
func (j *Journal) Commit(r Record, dir string, data []byte) (Record, error) {
	if r.Path == "" {
		return r, fmt.Errorf("ckpt: commit record needs a Path")
	}
	if err := WriteFileAtomic(filepath.Join(dir, r.Path), data); err != nil {
		return r, err
	}
	r.Bytes = int64(len(data))
	r.CRC = crc32.ChecksumIEEE(data)
	if err := j.Append(r); err != nil {
		return r, err
	}
	return r, nil
}

// VerifyFile checks that a journaled file still matches its record (size
// and CRC32) on disk — the guard against products mutated or truncated
// behind the journal's back.
func VerifyFile(dir string, r Record) error {
	data, err := os.ReadFile(filepath.Join(dir, r.Path))
	if err != nil {
		return fmt.Errorf("ckpt: journaled file missing: %w", err)
	}
	if int64(len(data)) != r.Bytes {
		return fmt.Errorf("%w: %s is %d bytes, journal says %d", ErrManifestChecksum, r.Path, len(data), r.Bytes)
	}
	if got := crc32.ChecksumIEEE(data); got != r.CRC {
		return fmt.Errorf("%w: %s checksum %08x, journal says %08x", ErrManifestChecksum, r.Path, got, r.CRC)
	}
	return nil
}

// RemoveStaleTemps deletes leftover *.tmp* files from commits interrupted
// mid-write, and *.quarantine* files parked by an integrity scrub whose
// repair never completed (the quarantined bytes are corrupt by
// definition; the journal and lineage ledger hold everything needed to
// re-derive the product). Safe to call on every resume.
func RemoveStaleTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) != "" &&
			(strings.Contains(e.Name(), ".tmp") || strings.Contains(e.Name(), ".quarantine")) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
