package grid

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// craft returns a field stream with the given header, cell bytes and a
// valid checksum: what a writer bug or a bit flip ahead of the checksum
// leaves behind.
func craft(n uint32, box float64, cells []byte) []byte {
	var b bytes.Buffer
	b.WriteString(fieldMagic)
	binary.Write(&b, binary.LittleEndian, n)
	binary.Write(&b, binary.LittleEndian, box)
	b.Write(cells)
	binary.Write(&b, binary.LittleEndian, crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

func field(t testing.TB, n int, box float64, seed int64) []byte {
	t.Helper()
	g, err := NewScalar(n, box)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	var b bytes.Buffer
	if err := g.WriteField(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// allocated returns the fewest heap bytes any of three calls of f
// allocates, after a first call has done any lazy initialisation: the
// count is process-wide, so one call can be charged for another
// goroutine's allocation.
func allocated(f func()) uint64 {
	f()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// allocBound is the most ReadScalar may allocate for a stream: one copy
// of it and one field as large as it, plus slack.
func allocBound(stream []byte) uint64 { return 2*uint64(len(stream)) + 4<<10 }

// Every header here carries a valid checksum, so only the length check
// stands between it and NewScalar. The first two panicked in makeslice,
// the third allocated 1 GiB before failing, the rest were accepted.
func TestReadScalarRejectsCraftedHeaders(t *testing.T) {
	one := make([]byte, 8)
	cases := []struct {
		name   string
		stream []byte
	}{
		{"n=2^20, half a cell", craft(1<<20, 1, make([]byte, 4))},
		{"n=2^21, half a cell", craft(1<<21, 1, make([]byte, 4))},
		{"n=512, no cells", craft(512, 1, nil)},
		{"n=2^32-1, one cell", craft(math.MaxUint32, 1, one)},
		{"n=0", craft(0, 1, nil)},
		{"n=2, one cell", craft(2, 1, one)},
		{"NaN box", craft(1, math.NaN(), one)},
		{"+Inf box", craft(1, math.Inf(1), one)},
		{"-Inf box", craft(1, math.Inf(-1), one)},
		{"zero box", craft(1, 0, one)},
		{"trailing bytes", craft(1, 1, make([]byte, 13))},
		{"trailing cell", craft(1, 1, make([]byte, 16))},
	}
	for _, c := range cases {
		var err error
		if got := allocated(func() { _, err = ReadScalar(bytes.NewReader(c.stream)) }); got > allocBound(c.stream) {
			t.Errorf("%s: allocated %d bytes for a %d-byte stream", c.name, got, len(c.stream))
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if g, err := ReadScalar(bytes.NewReader(craft(1, 1, one))); err != nil || g.N != 1 || g.Data[0] != 0 {
		t.Errorf("minimal valid stream: %v, %+v", err, g)
	}
}

// FuzzReadScalar holds the parser to three invariants on any input: it
// returns rather than panics, allocates at most about twice the input,
// and an accepted stream is exactly what WriteField writes for the field.
func FuzzReadScalar(f *testing.F) {
	for i, n := range []int{1, 2, 3} {
		s := field(f, n, 10*float64(n), int64(i))
		f.Add(s)
		f.Add(s[:len(s)-5])
		flipped := append([]byte(nil), s...)
		flipped[len(fieldMagic)+1] ^= 0x10
		f.Add(flipped)
	}
	f.Add(craft(1<<20, 1, make([]byte, 4)))
	f.Add(craft(1, math.NaN(), make([]byte, 8)))
	f.Fuzz(func(t *testing.T, stream []byte) {
		var g *Scalar
		var err error
		if got := allocated(func() { g, err = ReadScalar(bytes.NewReader(stream)) }); got > allocBound(stream) {
			t.Fatalf("allocated %d bytes for a %d-byte stream", got, len(stream))
		}
		if err != nil {
			return
		}
		var back bytes.Buffer
		if err := g.WriteField(&back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), stream) {
			t.Fatalf("accepted %d bytes re-serialise to %d different bytes", len(stream), back.Len())
		}
	})
}
