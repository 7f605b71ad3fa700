package grid

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary serialization for scalar fields: density grids are one of the
// paper's Level 2 data products (Table 1 lists "density fields" between
// halo particles and particle subsamples), written by the in-situ layer
// for downstream off-line analysis.

const fieldMagic = "HACCGRID"

// WriteField serializes the field: magic, dimension, box size, float64 cells,
// CRC32 trailer.
func (g *Scalar) WriteField(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString(fieldMagic)
	if err := binary.Write(&buf, binary.LittleEndian, uint32(g.N)); err != nil {
		return err
	}
	if err := binary.Write(&buf, binary.LittleEndian, g.BoxSize); err != nil {
		return err
	}
	if err := binary.Write(&buf, binary.LittleEndian, g.Data); err != nil {
		return err
	}
	payload := buf.Bytes()
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(payload))
}

// ReadScalar deserializes a field written by WriteField, verifying the
// checksum. It believes the header only once the stream holds exactly the
// cells it implies: a corrupt one cannot panic or allocate past the stream.
func ReadScalar(r io.Reader) (*Scalar, error) {
	var buf bytes.Buffer
	if s, ok := r.(interface{ Len() int }); ok {
		// One buffer, not doubling (up to 4× the stream), when r knows.
		buf.Grow(s.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("grid: reading field: %w", err)
	}
	data := buf.Bytes()
	const header = len(fieldMagic) + 4 + 8
	if len(data) < header+4 {
		return nil, fmt.Errorf("grid: field stream too short (%d bytes)", len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("grid: field checksum mismatch: %08x != %08x", got, want)
	}
	if magic := payload[:len(fieldMagic)]; string(magic) != fieldMagic {
		return nil, fmt.Errorf("grid: bad field magic %q", magic)
	}
	n := binary.LittleEndian.Uint32(payload[len(fieldMagic):])
	box := math.Float64frombits(binary.LittleEndian.Uint64(payload[len(fieldMagic)+4:]))
	cells := payload[header:]
	// len(cells) == 8·n³, tested without forming n³, which overflows.
	if nn := uint64(n) * uint64(n); n == 0 || len(cells)%8 != 0 ||
		uint64(len(cells)/8)%nn != 0 || uint64(len(cells)/8)/nn != uint64(n) {
		return nil, fmt.Errorf("grid: field of dimension %d does not fit its %d bytes of cells", n, len(cells))
	}
	g, err := NewScalar(int(n), box)
	if err != nil {
		return nil, err
	}
	for i := range g.Data {
		g.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(cells[8*i:]))
	}
	return g, nil
}
