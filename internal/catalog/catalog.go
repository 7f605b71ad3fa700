// Package catalog reads, writes and merges halo-center catalogs — the
// Level 3 products the workflow delivers. This package owns the text
// format; cmd/hacc-sim and cmd/cosmotools emit it by calling WriteFile:
//
//	# halo_tag mbp_tag x y z potential count
//	17 22886 12.3 4.5 0.8 -3.1e+13 842
//
// Merging reconciles the in-situ and off-line halves of the combined
// workflow — "In a final step, the two files from the Titan and Moonlight
// analysis were merged to provide a complete set of halo centers and
// properties" (§4.1). cmd/catalog-merge wraps this package.
package catalog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/cosmotools"
)

// Header is the canonical first line.
const Header = "# halo_tag mbp_tag x y z potential count"

// Write emits records in the canonical text format, sorted by halo tag.
func Write(w io.Writer, records []cosmotools.CenterRecord) error {
	sorted := append([]cosmotools.CenterRecord(nil), records...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].HaloTag < sorted[b].HaloTag })
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, Header); err != nil {
		return err
	}
	for _, r := range sorted {
		if _, err := fmt.Fprintf(bw, "%d %d %.6f %.6f %.6f %.6g %d\n",
			r.HaloTag, r.MBPTag, r.Pos[0], r.Pos[1], r.Pos[2], r.Potential, r.Count); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a catalog stream. Blank lines and comments are skipped;
// malformed lines are errors (silent data loss in a science catalog is
// unacceptable).
func Read(r io.Reader) ([]cosmotools.CenterRecord, error) {
	var out []cosmotools.CenterRecord
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 7 {
			return nil, fmt.Errorf("catalog line %d: %d fields, want 7", lineNo, len(fields))
		}
		var rec cosmotools.CenterRecord
		var err error
		if rec.HaloTag, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
			return nil, fmt.Errorf("catalog line %d: halo tag: %w", lineNo, err)
		}
		if rec.MBPTag, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			return nil, fmt.Errorf("catalog line %d: mbp tag: %w", lineNo, err)
		}
		for a := 0; a < 3; a++ {
			if rec.Pos[a], err = parseFinite(fields[2+a]); err != nil {
				return nil, fmt.Errorf("catalog line %d: coordinate: %w", lineNo, err)
			}
		}
		if rec.Potential, err = parseFinite(fields[5]); err != nil {
			return nil, fmt.Errorf("catalog line %d: potential: %w", lineNo, err)
		}
		if rec.Count, err = strconv.Atoi(fields[6]); err != nil {
			return nil, fmt.Errorf("catalog line %d: count: %w", lineNo, err)
		}
		if rec.Count < 1 {
			// A center is a member particle, so its halo has at least one.
			return nil, fmt.Errorf("catalog line %d: count %d, want ≥ 1", lineNo, rec.Count)
		}
		out = append(out, rec)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseFinite parses a float field and rejects NaN and ±Inf: a halo center
// is a particle position inside the box and its potential a finite sum, so
// a non-finite value is corruption, not data.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite value %q", s)
	}
	return v, err
}

// ReadFile parses a catalog from a path.
func ReadFile(path string) ([]cosmotools.CenterRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteFile writes a catalog to a path, committing it atomically so the
// merge step never reads a half-written Level 3 product.
func WriteFile(path string, records []cosmotools.CenterRecord) error {
	var buf bytes.Buffer
	if err := Write(&buf, records); err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(path, buf.Bytes())
}

// MergeFiles reads every input catalog and reconciles them in order: later
// files supersede earlier ones on duplicate halo tags (so the off-line
// catalog is passed last, matching cosmotools.MergeCenters semantics). The
// first input that does not parse fails the merge: a corrupt catalog is
// never silently folded into a science product.
func MergeFiles(paths []string) ([]cosmotools.CenterRecord, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("catalog: no input files")
	}
	byTag := map[int64]cosmotools.CenterRecord{}
	for _, path := range paths {
		records, err := ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("catalog: %s: %w", path, err)
		}
		for _, r := range records {
			byTag[r.HaloTag] = r
		}
	}
	out := make([]cosmotools.CenterRecord, 0, len(byTag))
	for _, r := range byTag {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].HaloTag < out[b].HaloTag })
	return out, nil
}
