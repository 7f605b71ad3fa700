package gio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/integrity"
	"repro/internal/testsupport"
)

// allocBound is the most a read may allocate for a stream: what it
// decodes to, a payload buffer, plus slack. The densest case is an empty
// block, whose 16 header bytes decode to a 176-byte particle container
// and a 16-byte Block; a 36-byte record decodes to 56 bytes of columns.
func allocBound(stream []byte) uint64 { return 16*uint64(len(stream)) + 4<<10 }

// craftedCounts are a valid magic and version followed by counts the
// stream cannot back: 2^32-1 blocks in 16 bytes, then one block header
// claiming 2^60 particles. Before counts were checked against the bytes
// left, the first asked for a 64 GiB block slice and the second panicked
// in makeslice.
func craftedCounts() [][]byte {
	head := []byte(Magic + "\x01\x00\x00\x00\xff\xff\xff\xff")
	block := binary.LittleEndian.AppendUint64(make([]byte, 4), 1<<60)
	block = append(block, 0, 0, 0, 0) // crc
	return [][]byte{head, append(append([]byte(nil), head...), block...)}
}

func TestReadRejectsCraftedCounts(t *testing.T) {
	for _, stream := range craftedCounts() {
		for name, read := range map[string]func([]byte) ([]Block, error){"strict": readStream, "salvage": salvageStream} {
			var err error
			if got := testsupport.Allocated(func() { _, err = read(stream) }); got > allocBound(stream) {
				t.Errorf("%s: allocated %d bytes for a %d-byte stream", name, got, len(stream))
			}
			if !errors.Is(err, ErrTruncated) {
				t.Errorf("%s of %d bytes: err = %v, want ErrTruncated", name, len(stream), err)
			}
		}
	}
}

func TestReadRejectsTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Block{{Rank: 0, Particles: randParticles(3, 1)}}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("junk")
	if _, err := readStream(buf.Bytes()); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// FuzzGioRead holds the parser to four invariants on any input: a strict
// and a salvage parse return rather than panic; neither allocates more
// than allocBound; a stream the strict parse accepts is exactly what
// Write (version 1) or WriteWide (version 2) writes for its blocks; and
// the salvage parse returns the same blocks, with no error, for it.
func FuzzGioRead(f *testing.F) {
	for i, n := range []int{0, 1, 3} {
		blocks := []Block{{Rank: i, Particles: randParticles(n, int64(i))}, {Rank: 7, Particles: randParticles(2, 9)}}
		for _, write := range []func(io.Writer, []Block) error{Write, WriteWide} {
			var buf bytes.Buffer
			if err := write(&buf, blocks); err != nil {
				f.Fatal(err)
			}
			s := buf.Bytes()
			f.Add(s)
			f.Add(s[:len(s)-5])
			f.Add(s[:len(Magic)+10])
			for _, frac := range []float64{0.05, 0.3, 0.9} {
				flipped := append([]byte(nil), s...)
				integrity.FlipBit(flipped, frac)
				f.Add(flipped)
			}
		}
	}
	for _, s := range craftedCounts() {
		f.Add(s)
	}
	multi, _, _ := multiChunkStream(f, Write, RecordSize)
	f.Add(multi)
	f.Fuzz(func(t *testing.T, stream []byte) {
		var blocks, salvaged []Block
		var err, serr error
		if got := testsupport.Allocated(func() { blocks, err = readStream(stream) }); got > allocBound(stream) {
			t.Fatalf("strict parse allocated %d bytes for a %d-byte stream", got, len(stream))
		}
		if got := testsupport.Allocated(func() { salvaged, serr = salvageStream(stream) }); got > allocBound(stream) {
			t.Fatalf("salvage parse allocated %d bytes for a %d-byte stream", got, len(stream))
		}
		if err != nil {
			return
		}
		if serr != nil {
			t.Fatalf("the strict parse accepted the stream, salvage failed: %v", serr)
		}
		write := Write
		if binary.LittleEndian.Uint32(stream[len(Magic):]) == versionWide {
			write = WriteWide
		}
		for name, got := range map[string][]Block{"strict": blocks, "salvage": salvaged} {
			var back bytes.Buffer
			if err := write(&back, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Bytes(), stream) {
				t.Fatalf("%s accepted %d bytes that re-serialise to %d different bytes", name, len(stream), back.Len())
			}
		}
	})
}
