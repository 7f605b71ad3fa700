package catalog

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cosmotools"
	"repro/internal/integrity"
	"repro/internal/testsupport"
)

// allocBound is the most Read may allocate for a stream: the scanner's
// line buffer plus, per line, a copy of the line, its 112-byte field slice
// and a 56-byte record, which the growing records slice allocates up to
// about six times over. The densest record, "1 1 1 1 1 1 1\n", is 14 bytes
// and measures ~30 bytes allocated per input byte.
func allocBound(stream []byte) uint64 { return 48*uint64(len(stream)) + 16<<10 }

// FuzzCatalogRead holds the parser to four invariants on any input: Read
// returns rather than panics; it allocates no more than allocBound; every
// record it accepts has a count of at least one and finite coordinates and
// potential; and what Write emits for the accepted records reads back and
// re-emits byte for byte.
func FuzzCatalogRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	s := buf.Bytes()
	f.Add(s)
	f.Add(s[:len(s)-5])
	f.Add(s[:len(Header)+10])
	for _, frac := range []float64{0.05, 0.3, 0.6, 0.9} {
		flipped := append([]byte(nil), s...)
		integrity.FlipBit(flipped, frac)
		f.Add(flipped)
	}
	for _, line := range []string{
		"1 2 0.5 0.5 0.5 -1.5 -5",
		"1 2 0.5 0.5 0.5 -1.5 0",
		"1 2 0.5 0.5 0.5 NaN 5",
		"1 2 1.0 +Inf 1.0 -1 5",
		"3 4 -0 1e300 5 -1.797695e308 +7",
		"9 9 1 1 1 -1 1\n9 8 2 2 2 -2 2",
	} {
		f.Add([]byte(line + "\n"))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		var records []cosmotools.CenterRecord
		var err error
		if got := testsupport.Allocated(func() { records, err = Read(bytes.NewReader(stream)) }); got > allocBound(stream) {
			t.Fatalf("Read allocated %d bytes for a %d-byte stream", got, len(stream))
		}
		if err != nil {
			return
		}
		for _, r := range records {
			if r.Count < 1 {
				t.Fatalf("accepted count %d: %+v", r.Count, r)
			}
			for _, v := range []float64{r.Pos[0], r.Pos[1], r.Pos[2], r.Potential} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted a non-finite value: %+v", r)
				}
			}
		}
		var once bytes.Buffer
		if err := Write(&once, records); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("Read rejects what Write emitted for its records: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := Write(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("Write∘Read is not a fixed point:\n%s\nthen\n%s", strings.TrimSpace(once.String()), strings.TrimSpace(twice.String()))
		}
	})
}
