package gio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/ckpt"
	"repro/internal/cosmo"
	"repro/internal/nbody"
)

// Checkpoint / restart support. The production runs the paper draws on
// treat checkpoint data as a separate stream from analysis outputs (the
// Outer Rim's "5 Pbytes of raw outputs (not including check-point restart
// files)", §1): checkpoints carry full-precision state so a restarted run
// is bit-identical, unlike the float32 Level 1 analysis records.
//
// Format (version 2): a "HACCCKPT" header — cosmology, box, grid,
// current scale factor, the pinned integration Schedule, the step index,
// and the IC seed — followed by the particle state as an embedded
// wide-record (version 2) gio stream, with a CRC32 trailer over
// everything. The particle payload being a plain gio stream means torn
// checkpoints are salvageable with the same salvage parse as any
// other gio file.

const checkpointMagic = "HACCCKPT"
const checkpointVersion = 2

// WriteCheckpoint serializes the full simulation state with a CRC32
// trailer. The restart contract is bit-identity: LoadCheckpoint followed
// by Resume reproduces the uninterrupted run's particle arrays exactly.
func WriteCheckpoint(w io.Writer, s *nbody.Simulation) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	head := []any{
		uint32(checkpointVersion),
		uint32(s.NG),
		s.Box,
		s.A,
		s.Cosmo.OmegaM, s.Cosmo.OmegaL, s.Cosmo.OmegaB,
		s.Cosmo.H0, s.Cosmo.Sigma8, s.Cosmo.NS,
		s.Sched.A0, s.Sched.AEnd,
		uint32(s.Sched.TotalSteps), uint32(s.StepIndex),
		s.Seed,
	}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	// Particle state as an embedded wide-record gio stream.
	if err := WriteWide(bw, []Block{{Rank: 0, Particles: s.P}}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Trailer: checksum of everything written so far (not itself).
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// ReadCheckpoint reconstructs a simulation from a checkpoint stream. The
// stream is read fully before parsing so the CRC trailer can be verified
// over the exact payload.
func ReadCheckpoint(r io.Reader) (*nbody.Simulation, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("gio: reading checkpoint: %w", err)
	}
	if len(data) < len(checkpointMagic)+4 {
		return nil, fmt.Errorf("gio: checkpoint too short (%d bytes): %w", len(data), ErrTruncated)
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("gio: checkpoint: %w: %08x != %08x", ErrChecksum, got, want)
	}
	br := bytes.NewReader(payload)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("gio: checkpoint magic: %w", tornErr(err))
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("gio: bad checkpoint magic %q", magic)
	}
	var ver, ng, totalSteps, stepIndex uint32
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, err
	}
	if ver != checkpointVersion {
		return nil, fmt.Errorf("gio: unsupported checkpoint version %d", ver)
	}
	if err := binary.Read(br, binary.LittleEndian, &ng); err != nil {
		return nil, err
	}
	var box, a, a0, aEnd float64
	var seed int64
	var params cosmo.Params
	for _, step := range []any{
		&box, &a,
		&params.OmegaM, &params.OmegaL, &params.OmegaB,
		&params.H0, &params.Sigma8, &params.NS,
		&a0, &aEnd, &totalSteps, &stepIndex, &seed,
	} {
		if err := binary.Read(br, binary.LittleEndian, step); err != nil {
			return nil, fmt.Errorf("gio: checkpoint header: %w", tornErr(err))
		}
	}
	if totalSteps > math.MaxInt32 || stepIndex > totalSteps {
		return nil, fmt.Errorf("gio: checkpoint schedule %d/%d invalid", stepIndex, totalSteps)
	}
	blocks, err := parse(br, int64(br.Len()), false)
	if err != nil {
		return nil, fmt.Errorf("gio: checkpoint particles: %w", err)
	}
	s, err := nbody.NewSimulation(params, box, int(ng), Merge(blocks), a)
	if err != nil {
		return nil, err
	}
	s.Sched = nbody.Schedule{A0: a0, AEnd: aEnd, TotalSteps: int(totalSteps)}
	s.StepIndex = int(stepIndex)
	s.Seed = seed
	return s, nil
}

// SaveCheckpointFile commits a checkpoint to a path atomically (temp file
// + rename): a crash mid-save can never tear a previously good
// checkpoint, so the newest complete checkpoint on disk is always a safe
// restart point.
func SaveCheckpointFile(path string, s *nbody.Simulation) error {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s); err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(path, buf.Bytes())
}

// LoadCheckpointFile reads a checkpoint from a path.
func LoadCheckpointFile(path string) (*nbody.Simulation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
