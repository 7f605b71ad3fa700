package gio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nbody"
)

func randParticles(n int, seed int64) *nbody.Particles {
	rng := rand.New(rand.NewSource(seed))
	p := nbody.NewParticles(n)
	for i := 0; i < n; i++ {
		p.X[i] = rng.Float64() * 100
		p.Y[i] = rng.Float64() * 100
		p.Z[i] = rng.Float64() * 100
		p.VX[i] = rng.NormFloat64()
		p.VY[i] = rng.NormFloat64()
		p.VZ[i] = rng.NormFloat64()
		p.Tag[i] = rng.Int63()
	}
	return p
}

func TestRecordSizeIs36(t *testing.T) {
	if RecordSize != 36 {
		t.Fatalf("record size = %d, want the paper's 36 bytes", RecordSize)
	}
}

// readStream and salvageStream parse a whole in-memory stream, strictly
// and in salvage mode, as ReadFile and ReadSalvageFile parse a file.
func readStream(data []byte) ([]Block, error) {
	return parse(bytes.NewReader(data), int64(len(data)), false)
}

func salvageStream(data []byte) ([]Block, error) {
	return parse(bytes.NewReader(data), int64(len(data)), true)
}

func TestRoundTrip(t *testing.T) {
	blocks := []Block{
		{Rank: 0, Particles: randParticles(100, 1)},
		{Rank: 3, Particles: randParticles(50, 2)},
		{Rank: 7, Particles: nbody.NewParticles(0)},
	}
	var buf bytes.Buffer
	if err := Write(&buf, blocks); err != nil {
		t.Fatal(err)
	}
	wantLen := len(Magic) + 8 + 3*(4+8+4) + (100+50)*RecordSize
	if buf.Len() != wantLen {
		t.Errorf("stream length = %d, want %d", buf.Len(), wantLen)
	}
	got, err := readStream(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("blocks = %d", len(got))
	}
	for bi, b := range got {
		want := blocks[bi]
		if b.Rank != want.Rank {
			t.Errorf("block %d rank = %d, want %d", bi, b.Rank, want.Rank)
		}
		if b.Particles.N() != want.Particles.N() {
			t.Fatalf("block %d count = %d, want %d", bi, b.Particles.N(), want.Particles.N())
		}
		for i := 0; i < b.Particles.N(); i++ {
			// float32 storage: compare at float32 precision.
			if float32(b.Particles.X[i]) != float32(want.Particles.X[i]) {
				t.Fatalf("block %d particle %d x mismatch", bi, i)
			}
			if b.Particles.Tag[i] != want.Particles.Tag[i] {
				t.Fatalf("block %d particle %d tag mismatch", bi, i)
			}
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := readStream([]byte("NOTMAGIC\x01\x00\x00\x00\x00\x00\x00\x00")); err == nil {
		t.Error("expected magic error")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Block{{Rank: 0, Particles: randParticles(10, 3)}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := readStream(data[:len(data)-5]); err == nil {
		t.Error("expected truncation error")
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Block{{Rank: 0, Particles: randParticles(10, 4)}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xFF // flip a payload byte
	if _, err := readStream(data); err == nil {
		t.Error("expected checksum error")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "step42.gio")
	blocks := []Block{{Rank: 5, Particles: randParticles(25, 5)}}
	if err := WriteFile(path, blocks); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Rank != 5 || got[0].Particles.N() != 25 {
		t.Errorf("got %+v", got)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.gio")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestMerge(t *testing.T) {
	blocks := []Block{
		{Rank: 0, Particles: randParticles(10, 6)},
		{Rank: 1, Particles: randParticles(20, 7)},
	}
	merged := Merge(blocks)
	if merged.N() != 30 {
		t.Errorf("merged N = %d", merged.N())
	}
	if merged.Tag[0] != blocks[0].Particles.Tag[0] || merged.Tag[10] != blocks[1].Particles.Tag[0] {
		t.Error("merge order wrong")
	}
}

func TestAggregationPlanPaperShape(t *testing.T) {
	// Q Continuum: 16384 ranks in files of 128 -> 128 files of 128 blocks.
	plan, err := AggregationPlan(16384, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 128 {
		t.Fatalf("files = %d, want 128", len(plan))
	}
	for fi, group := range plan {
		if len(group) != 128 {
			t.Fatalf("file %d has %d blocks", fi, len(group))
		}
		if group[0] != fi*128 {
			t.Fatalf("file %d starts at rank %d", fi, group[0])
		}
	}
}

func TestAggregationPlanUneven(t *testing.T) {
	plan, err := AggregationPlan(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 || len(plan[2]) != 2 {
		t.Errorf("plan = %v", plan)
	}
	if _, err := AggregationPlan(0, 4); err == nil {
		t.Error("expected error")
	}
}

func TestLevel1SizeMatchesTable1(t *testing.T) {
	// Table 1: 1024³ particles -> ~40 GB raw; 8192³ -> ~20 TB.
	gb := float64(1024*1024*1024*RecordSize) / 1e9
	if gb < 35 || gb > 45 {
		t.Errorf("1024³ Level 1 = %.1f GB, paper says ~40 GB", gb)
	}
	tb := float64(8192*8192*8192*RecordSize) / 1e12
	if tb < 18 || tb > 22 {
		t.Errorf("8192³ Level 1 = %.1f TB, paper says ~20 TB", tb)
	}

}

// failingWriter errors after n bytes, exercising gio's error paths.
type failingWriter struct{ remaining int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.remaining {
		n := f.remaining
		f.remaining = 0
		return n, errShort
	}
	f.remaining -= len(p)
	return len(p), nil
}

var errShort = fmt.Errorf("writer full")

func TestWriteErrorPaths(t *testing.T) {
	blocks := []Block{{Rank: 0, Particles: randParticles(100, 9)}}
	// Fail at several depths: magic, header, block header, payload.
	for _, budget := range []int{0, 9, 14, 30, 200} {
		if err := Write(&failingWriter{remaining: budget}, blocks); err == nil {
			t.Errorf("budget %d: expected write error", budget)
		}
	}
	// Invalid particles are rejected before any bytes flow.
	bad := nbody.NewParticles(2)
	bad.VX = bad.VX[:1]
	var buf bytes.Buffer
	if err := Write(&buf, []Block{{Rank: 0, Particles: bad}}); err == nil {
		t.Error("expected validation error")
	}
}

func TestWriteFileCreateError(t *testing.T) {
	err := WriteFile("/nonexistent-dir/zzz/file.gio", []Block{{Rank: 0, Particles: nbody.NewParticles(0)}})
	if err == nil {
		t.Error("expected path error")
	}
}

func TestReadHeaderErrorPaths(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Block{{Rank: 1, Particles: randParticles(5, 10)}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Truncations at every header boundary.
	for _, cut := range []int{4, 9, 13, 17, 25, 29} {
		if _, err := readStream(data[:cut]); err == nil {
			t.Errorf("cut %d: expected error", cut)
		}
	}
	// Unsupported version.
	bad := append([]byte(nil), data...)
	bad[8] = 99
	if _, err := readStream(bad); err == nil {
		t.Error("expected version error")
	}
}

func TestWideRoundTripBitExact(t *testing.T) {
	blocks := []Block{
		{Rank: 0, Particles: randParticles(80, 11)},
		{Rank: 2, Particles: randParticles(17, 12)},
	}
	var buf bytes.Buffer
	if err := WriteWide(&buf, blocks); err != nil {
		t.Fatal(err)
	}
	wantLen := len(Magic) + 8 + 2*(4+8+4) + (80+17)*WideRecordSize
	if buf.Len() != wantLen {
		t.Errorf("wide stream length = %d, want %d", buf.Len(), wantLen)
	}
	got, err := readStream(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for bi, b := range got {
		want := blocks[bi].Particles
		for i := 0; i < b.Particles.N(); i++ {
			// float64 storage: bit-exact round trip.
			if b.Particles.X[i] != want.X[i] || b.Particles.VX[i] != want.VX[i] ||
				b.Particles.VZ[i] != want.VZ[i] || b.Particles.Tag[i] != want.Tag[i] {
				t.Fatalf("wide block %d particle %d not bit-identical", bi, i)
			}
		}
	}
}

func TestTypedSentinelErrors(t *testing.T) {
	var buf bytes.Buffer
	blocks := []Block{{Rank: 0, Particles: randParticles(40, 21)}}
	if err := Write(&buf, blocks); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Torn file: drop the tail.
	_, err := readStream(data[:len(data)-30])
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("torn file error = %v, want ErrTruncated", err)
	}

	// Corrupt payload: flip a byte past the headers.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x40
	_, err = readStream(bad)
	if !errors.Is(err, ErrChecksum) {
		t.Errorf("corrupt file error = %v, want ErrChecksum", err)
	}

	// Intact file: no error.
	if _, err := readStream(data); err != nil {
		t.Errorf("intact file error = %v", err)
	}
}

func TestReadSalvage(t *testing.T) {
	blocks := []Block{
		{Rank: 0, Particles: randParticles(30, 31)},
		{Rank: 1, Particles: randParticles(30, 32)},
		{Rank: 2, Particles: randParticles(30, 33)},
	}
	var buf bytes.Buffer
	if err := Write(&buf, blocks); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	blockBytes := 4 + 8 + 4 + 30*RecordSize

	// Tear the file inside block 2: blocks 0 and 1 must be salvaged.
	torn := data[:len(data)-blockBytes/2]
	got, err := salvageStream(torn)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("salvage error = %v, want ErrTruncated", err)
	}
	if len(got) != 2 || got[0].Rank != 0 || got[1].Rank != 1 {
		t.Fatalf("salvaged %d blocks", len(got))
	}
	for i := 0; i < 30; i++ {
		if float32(got[1].Particles.X[i]) != float32(blocks[1].Particles.X[i]) {
			t.Fatalf("salvaged block data corrupt at %d", i)
		}
	}

	// Corrupt the middle block: bit rot, not a tear, so the blocks on
	// either side survive — salvage skips the bad block and keeps going.
	bad := append([]byte(nil), data...)
	bad[len(Magic)+8+blockBytes+blockBytes-3] ^= 0x10
	got, err = salvageStream(bad)
	if !errors.Is(err, ErrChecksum) {
		t.Errorf("salvage corrupt error = %v, want ErrChecksum", err)
	}
	if len(got) != 2 || got[0].Rank != 0 || got[1].Rank != 2 {
		t.Fatalf("salvaged %d blocks from corrupt file, want ranks 0 and 2", len(got))
	}
	// Strict Read must still refuse the whole file.
	if _, err := readStream(bad); !errors.Is(err, ErrChecksum) {
		t.Errorf("strict read of corrupt file = %v, want ErrChecksum", err)
	}

	// A clean file salvages everything with no error.
	got, err = salvageStream(data)
	if err != nil || len(got) != 3 {
		t.Fatalf("clean salvage: %d blocks, %v", len(got), err)
	}

	// File variant.
	path := filepath.Join(t.TempDir(), "torn.gio")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ReadSalvageFile(path)
	if !errors.Is(err, ErrTruncated) || len(got) != 2 {
		t.Fatalf("salvage file: %d blocks, %v", len(got), err)
	}
}

func TestReadSalvageMultipleCorruptBlocks(t *testing.T) {
	const nBlocks = 6
	blocks := make([]Block, nBlocks)
	for i := range blocks {
		blocks[i] = Block{Rank: i, Particles: randParticles(20, int64(40+i))}
	}
	var buf bytes.Buffer
	if err := Write(&buf, blocks); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	blockBytes := 4 + 8 + 4 + 20*RecordSize

	// Rot three non-adjacent interior blocks (1, 3, 4): flip one payload
	// bit in each, lengths untouched.
	bad := append([]byte(nil), data...)
	for _, bi := range []int{1, 3, 4} {
		bad[len(Magic)+8+bi*blockBytes+16+5] ^= 0x01
	}
	got, err := salvageStream(bad)
	if !errors.Is(err, ErrChecksum) {
		t.Errorf("salvage error = %v, want ErrChecksum (first corrupt block)", err)
	}
	wantRanks := []int{0, 2, 5}
	if len(got) != len(wantRanks) {
		t.Fatalf("salvaged %d blocks, want %d", len(got), len(wantRanks))
	}
	for i, b := range got {
		if b.Rank != wantRanks[i] {
			t.Errorf("salvaged block %d has rank %d, want %d", i, b.Rank, wantRanks[i])
		}
		orig := blocks[wantRanks[i]].Particles
		for j := 0; j < orig.N(); j++ {
			if float32(b.Particles.X[j]) != float32(orig.X[j]) {
				t.Fatalf("salvaged rank %d data corrupt at %d", b.Rank, j)
			}
		}
	}

	// Corruption plus a torn tail: the tear still stops the scan, and the
	// reported error is the first one hit (the checksum, not the tear).
	tornBad := bad[:len(bad)-blockBytes/2]
	got, err = salvageStream(tornBad)
	if !errors.Is(err, ErrChecksum) {
		t.Errorf("torn+corrupt error = %v, want first error (ErrChecksum)", err)
	}
	if len(got) != 2 || got[0].Rank != 0 || got[1].Rank != 2 {
		t.Fatalf("torn+corrupt salvaged %d blocks, want ranks 0 and 2", len(got))
	}
}

// multiChunkStream is a block of 3 decode chunks and 5 records between
// two small good blocks, written with write, and the offset of the big
// block's payload for records of recSize bytes.
func multiChunkStream(t testing.TB, write func(io.Writer, []Block) error, recSize int) (data []byte, blocks []Block, payload int) {
	blocks = []Block{
		{Rank: 0, Particles: randParticles(7, 51)},
		{Rank: 1, Particles: randParticles(3*decodeChunk+5, 52)},
		{Rank: 2, Particles: randParticles(4, 53)},
	}
	var buf bytes.Buffer
	if err := write(&buf, blocks); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), blocks, 3*blockHeaderSize + 7*recSize
}

// A block spanning several decode chunks is checksummed across all of
// them: a bit flipped in its last chunk fails a strict read and drops just
// that block from a salvage; a stream torn mid-chunk is a tear.
func TestReadChunkedBlock(t *testing.T) {
	for _, v := range []struct {
		name    string
		write   func(io.Writer, []Block) error
		recSize int
	}{{"v1", Write, RecordSize}, {"v2", WriteWide, WideRecordSize}} {
		name, write, recSize := v.name, v.write, v.recSize
		data, blocks, payload := multiChunkStream(t, write, recSize)
		// Clean: every block round-trips through the chunked decode.
		got, err := readStream(data)
		if err != nil || len(got) != 3 {
			t.Fatalf("%s: clean read: %d blocks, %v", name, len(got), err)
		}
		var back bytes.Buffer
		if err := write(&back, got); err != nil || !bytes.Equal(back.Bytes(), data) {
			t.Fatalf("%s: clean read does not re-serialise to its stream (%v)", name, err)
		}

		bad := append([]byte(nil), data...)
		bad[payload+(3*decodeChunk+2)*recSize+5] ^= 0x04
		if _, err := readStream(bad); !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: strict read of a rotten last chunk = %v, want ErrChecksum", name, err)
		}
		got, err = salvageStream(bad)
		if !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: salvage error = %v, want ErrChecksum", name, err)
		}
		var want bytes.Buffer
		if err := write(&want, []Block{blocks[0], blocks[2]}); err != nil {
			t.Fatal(err)
		}
		back.Reset()
		if err := write(&back, got); err != nil || !bytes.Equal(back.Bytes(), want.Bytes()) {
			t.Errorf("%s: salvage returned %d blocks, not exactly the two good ones (%v)", name, len(got), err)
		}

		// Torn in the second chunk: found from the size before any read,
		// and mid-chunk by a reader that claims the untorn length.
		torn := data[:payload+decodeChunk*recSize+100]
		if _, err := readStream(torn); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: read of a stream torn mid-chunk = %v, want ErrTruncated", name, err)
		}
		got, err = parse(bytes.NewReader(torn), int64(len(data)), true)
		if !errors.Is(err, ErrTruncated) || len(got) != 1 || got[0].Rank != 0 {
			t.Errorf("%s: salvage of a stream torn mid-chunk = %d blocks, %v; want block 0 and ErrTruncated", name, len(got), err)
		}
	}
}
