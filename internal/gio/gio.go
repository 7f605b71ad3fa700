// Package gio implements a blocked binary particle file format in the
// spirit of HACC's GenericIO: fixed-size particle records, one block per
// writing rank, per-block CRC32 checksums, and aggregation of many rank
// blocks into a single file.
//
// Two record layouts share the container:
//
//   - Version 1 (analysis outputs): 36-byte records matching the paper's
//     accounting — "each particle carries 36 bytes of information" (§3):
//     three float32 positions, three float32 velocities, one float32
//     potential slot, one int64 tag.
//   - Version 2 (checkpoint streams): 56-byte full-precision records —
//     six float64 phase-space components plus the tag — so a restarted
//     simulation is bit-identical to an uninterrupted one. Written by
//     WriteWide; Read handles both.
//
// The Q Continuum off-line pipeline aggregated "the results from 128
// nodes from Titan ... in one file, resulting in 128 files containing 128
// blocks each" (§4.1); the Aggregation helpers reproduce that grouping,
// and the workflow engine sizes Level 1/Level 2 I/O from these byte
// counts.
//
// Real HPC jobs are killed at walltime limits mid-write, so torn gio
// files exist in practice. Read fails loudly with typed sentinels
// (ErrTruncated, ErrChecksum); ReadSalvage instead recovers the valid
// prefix of blocks, which is how a resuming campaign assesses a file
// whose write was interrupted.
package gio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/ckpt"
	"repro/internal/nbody"
)

// Magic identifies a gio stream.
const Magic = "HACCGIO1"

// RecordSize is the size of one version 1 particle record in bytes.
const RecordSize = nbody.BytesPerParticle // 36

// WideRecordSize is the size of one version 2 full-precision record:
// 6 float64 phase-space components + int64 tag.
const WideRecordSize = 56

// ErrTruncated reports a stream that ends mid-structure: a torn write.
// Matchable with errors.Is.
var ErrTruncated = errors.New("gio: truncated stream")

// ErrChecksum reports a block whose payload fails its CRC32. Matchable
// with errors.Is.
var ErrChecksum = errors.New("gio: block checksum mismatch")

// Block is one rank's particle payload within a file.
type Block struct {
	// Rank identifies the writing rank.
	Rank int
	// Particles holds the block's particles.
	Particles *nbody.Particles
}

// BytesForParticles returns the version 1 payload size for n particles.
func BytesForParticles(n int) int64 { return int64(n) * RecordSize }

// header layout: magic[8] version uint32, blockCount uint32.
// block header: rank uint32, count uint64, crc uint32.

const (
	version     = 1
	versionWide = 2
)

// Write streams blocks to w in the 36-byte analysis layout (version 1).
// Blocks are written in the order given.
func Write(w io.Writer, blocks []Block) error {
	return write(w, blocks, version)
}

// WriteWide streams blocks to w in the 56-byte full-precision layout
// (version 2) used by simulation checkpoints: float64 survives the round
// trip bit-for-bit, which the float32 analysis records cannot.
func WriteWide(w io.Writer, blocks []Block) error {
	return write(w, blocks, versionWide)
}

func write(w io.Writer, blocks []Block, ver uint32) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, ver); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(blocks))); err != nil {
		return err
	}
	for _, b := range blocks {
		if err := writeBlock(bw, b, ver); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeBlock(w io.Writer, b Block, ver uint32) error {
	p := b.Particles
	if err := p.Validate(); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(b.Rank)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(p.N())); err != nil {
		return err
	}
	var payload []byte
	if ver == versionWide {
		payload = encodeParticlesWide(p)
	} else {
		payload = encodeParticles(p)
	}
	crc := crc32.ChecksumIEEE(payload)
	if err := binary.Write(w, binary.LittleEndian, crc); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func encodeParticles(p *nbody.Particles) []byte {
	buf := make([]byte, p.N()*RecordSize)
	off := 0
	put32 := func(v float64) {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(float32(v)))
		off += 4
	}
	for i := 0; i < p.N(); i++ {
		put32(p.X[i])
		put32(p.Y[i])
		put32(p.Z[i])
		put32(p.VX[i])
		put32(p.VY[i])
		put32(p.VZ[i])
		put32(0) // potential slot, filled by analysis outputs
		binary.LittleEndian.PutUint64(buf[off:], uint64(p.Tag[i]))
		off += 8
	}
	return buf
}

func decodeParticles(buf []byte, n int) *nbody.Particles {
	p := nbody.NewParticles(n)
	off := 0
	get32 := func() float64 {
		v := math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		return float64(v)
	}
	for i := 0; i < n; i++ {
		p.X[i] = get32()
		p.Y[i] = get32()
		p.Z[i] = get32()
		p.VX[i] = get32()
		p.VY[i] = get32()
		p.VZ[i] = get32()
		_ = get32() // potential slot
		p.Tag[i] = int64(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return p
}

func encodeParticlesWide(p *nbody.Particles) []byte {
	buf := make([]byte, p.N()*WideRecordSize)
	off := 0
	put64 := func(v float64) {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	for i := 0; i < p.N(); i++ {
		put64(p.X[i])
		put64(p.Y[i])
		put64(p.Z[i])
		put64(p.VX[i])
		put64(p.VY[i])
		put64(p.VZ[i])
		binary.LittleEndian.PutUint64(buf[off:], uint64(p.Tag[i]))
		off += 8
	}
	return buf
}

func decodeParticlesWide(buf []byte, n int) *nbody.Particles {
	p := nbody.NewParticles(n)
	off := 0
	get64 := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		return v
	}
	for i := 0; i < n; i++ {
		p.X[i] = get64()
		p.Y[i] = get64()
		p.Z[i] = get64()
		p.VX[i] = get64()
		p.VY[i] = get64()
		p.VZ[i] = get64()
		p.Tag[i] = int64(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return p
}

// Read parses a gio stream (either record layout), verifying the magic,
// version and every block checksum. Torn streams fail with ErrTruncated,
// corrupt blocks with ErrChecksum; nothing is returned for a damaged
// file — use ReadSalvage to recover the valid prefix instead.
func Read(r io.Reader) ([]Block, error) {
	blocks, err := read(r, false)
	if err != nil {
		return nil, err
	}
	return blocks, nil
}

// ReadSalvage parses as much of a gio stream as is intact: every block
// that is complete and passes its checksum is returned, together with the
// first error encountered (nil when the whole stream was valid). Unlike
// the strict Read, a corrupt interior block — bit rot rather than a torn
// tail — is skipped and the scan continues, since each block frames its
// own payload length; only truncation stops the scan. This is the
// recovery path for damaged output — the resumable campaign uses it to
// report how much of an unjournaled file survived before redoing the step.
func ReadSalvage(r io.Reader) ([]Block, error) {
	return read(r, true)
}

// read parses blocks until the stream ends or tears, returning whatever
// was valid plus the terminating (or, when salvaging, first) error. In
// strict mode a corrupt block stops the scan; in salvage mode it is
// skipped.
func read(r io.Reader, salvage bool) ([]Block, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("gio: reading magic: %w", tornErr(err))
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("gio: bad magic %q", magic)
	}
	var ver, nBlocks uint32
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, fmt.Errorf("gio: reading version: %w", tornErr(err))
	}
	if ver != version && ver != versionWide {
		return nil, fmt.Errorf("gio: unsupported version %d", ver)
	}
	recSize := RecordSize
	if ver == versionWide {
		recSize = WideRecordSize
	}
	if err := binary.Read(br, binary.LittleEndian, &nBlocks); err != nil {
		return nil, fmt.Errorf("gio: reading block count: %w", tornErr(err))
	}
	blocks := make([]Block, 0, nBlocks)
	var firstErr error
	for bi := uint32(0); bi < nBlocks; bi++ {
		var rank uint32
		var count uint64
		var crc uint32
		if err := binary.Read(br, binary.LittleEndian, &rank); err != nil {
			return blocks, firstOf(firstErr, fmt.Errorf("gio: block %d rank: %w", bi, tornErr(err)))
		}
		if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
			return blocks, firstOf(firstErr, fmt.Errorf("gio: block %d count: %w", bi, tornErr(err)))
		}
		if err := binary.Read(br, binary.LittleEndian, &crc); err != nil {
			return blocks, firstOf(firstErr, fmt.Errorf("gio: block %d crc: %w", bi, tornErr(err)))
		}
		payload := make([]byte, int(count)*recSize)
		if _, err := io.ReadFull(br, payload); err != nil {
			return blocks, firstOf(firstErr, fmt.Errorf("gio: block %d payload: %w", bi, tornErr(err)))
		}
		if got := crc32.ChecksumIEEE(payload); got != crc {
			err := fmt.Errorf("gio: block %d: %w: %08x != %08x", bi, ErrChecksum, got, crc)
			if !salvage {
				return blocks, err
			}
			// The payload framed its own length, so the stream cursor is
			// already at the next block header: skip and keep scanning.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var p *nbody.Particles
		if ver == versionWide {
			p = decodeParticlesWide(payload, int(count))
		} else {
			p = decodeParticles(payload, int(count))
		}
		blocks = append(blocks, Block{Rank: int(rank), Particles: p})
	}
	return blocks, firstErr
}

// firstOf keeps the first error of a salvage scan when a later one ends it.
func firstOf(first, last error) error {
	if first != nil {
		return first
	}
	return last
}

// tornErr maps io-level end-of-stream errors onto the ErrTruncated
// sentinel so callers can errors.Is them uniformly.
func tornErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w (%v)", ErrTruncated, err)
	}
	return err
}

// WriteFile writes blocks to a file path (version 1 layout). The file is
// committed atomically (temp file, fsync, rename) so a crash mid-write
// never leaves a torn final file for a resuming campaign to trust.
func WriteFile(path string, blocks []Block) error {
	var buf bytes.Buffer
	if err := Write(&buf, blocks); err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(path, buf.Bytes())
}

// ReadFile reads all blocks from a file path.
func ReadFile(path string) ([]Block, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// ReadSalvageFile salvages the valid prefix of blocks from a file path.
func ReadSalvageFile(path string) ([]Block, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSalvage(f)
}

// Merge concatenates the particles of all blocks into a single container.
func Merge(blocks []Block) *nbody.Particles {
	parts := make([]*nbody.Particles, len(blocks))
	for i, b := range blocks {
		parts[i] = b.Particles
	}
	return nbody.Concat(parts...)
}

// AggregationPlan groups nRanks writer ranks into files of groupSize blocks
// each ("the results from 128 nodes ... aggregated in one file"). It
// returns, per file, the rank ids it contains, in rank order.
func AggregationPlan(nRanks, groupSize int) ([][]int, error) {
	if nRanks <= 0 || groupSize <= 0 {
		return nil, fmt.Errorf("gio: invalid aggregation %d ranks / %d per file", nRanks, groupSize)
	}
	var plan [][]int
	for start := 0; start < nRanks; start += groupSize {
		end := start + groupSize
		if end > nRanks {
			end = nRanks
		}
		group := make([]int, 0, end-start)
		for r := start; r < end; r++ {
			group = append(group, r)
		}
		plan = append(plan, group)
	}
	return plan, nil
}
