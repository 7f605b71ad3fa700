package catalog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cosmotools"
)

func sample() []cosmotools.CenterRecord {
	return []cosmotools.CenterRecord{
		{HaloTag: 17, MBPTag: 22886, Pos: [3]float64{12.3, 4.5, 0.8}, Potential: -3.1e13, Count: 842},
		{HaloTag: 3, MBPTag: 10245, Pos: [3]float64{1, 2, 3}, Potential: -9.9e12, Count: 120},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), Header) {
		t.Error("missing header")
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	// Sorted by tag on write.
	if got[0].HaloTag != 3 || got[1].HaloTag != 17 {
		t.Errorf("order = %d, %d", got[0].HaloTag, got[1].HaloTag)
	}
	if got[1].MBPTag != 22886 || got[1].Count != 842 {
		t.Errorf("record = %+v", got[1])
	}
	if got[1].Pos[0] != 12.3 {
		t.Errorf("pos = %v", got[1].Pos)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	bad := []string{
		"1 2 3 4 5 6",               // 6 fields
		"x 2 1.0 1.0 1.0 -1 5",      // bad tag
		"1 y 1.0 1.0 1.0 -1 5",      // bad mbp
		"1 2 zz 1.0 1.0 -1 5",       // bad pos
		"1 2 1.0 1.0 1.0 ww 5",      // bad potential
		"1 2 1.0 1.0 1.0 -1 notint", // bad count
		"1 2 0.5 0.5 0.5 -1.5 -5",   // negative count
		"1 2 0.5 0.5 0.5 -1.5 0",    // empty halo
	}
	for i, line := range bad {
		if _, err := Read(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
	// Comments and blanks are fine.
	got, err := Read(strings.NewReader("# comment\n\n"))
	if err != nil || len(got) != 0 {
		t.Errorf("comment-only: %v %v", got, err)
	}
}

func TestFileRoundTripAndMerge(t *testing.T) {
	dir := t.TempDir()
	inSitu := filepath.Join(dir, "insitu.centers")
	offline := filepath.Join(dir, "offline.centers")
	if err := WriteFile(inSitu, []cosmotools.CenterRecord{
		{HaloTag: 1, MBPTag: 11, Count: 50},
		{HaloTag: 5, MBPTag: 55, Count: 900}, // placeholder, superseded
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(offline, []cosmotools.CenterRecord{
		{HaloTag: 5, MBPTag: 99, Count: 900},
		{HaloTag: 9, MBPTag: 91, Count: 1200},
	}); err != nil {
		t.Fatal(err)
	}
	merged, err := MergeFiles([]string{inSitu, offline})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 3 {
		t.Fatalf("merged = %+v", merged)
	}
	if merged[0].HaloTag != 1 || merged[1].HaloTag != 5 || merged[2].HaloTag != 9 {
		t.Errorf("order = %+v", merged)
	}
	if merged[1].MBPTag != 99 {
		t.Error("later catalog should supersede")
	}
	if _, err := MergeFiles(nil); err == nil {
		t.Error("expected no-input error")
	}
	if _, err := MergeFiles([]string{filepath.Join(dir, "missing")}); err == nil {
		t.Error("expected missing-file error")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("expected read error")
	}
}

func TestReadRejectsNonFiniteCoordinates(t *testing.T) {
	bad := []string{
		"1 2 NaN 1.0 1.0 -1 5",
		"1 2 1.0 +Inf 1.0 -1 5",
		"1 2 1.0 1.0 -Inf -1 5",
		"1 2 1.0 1.0 1.0 NaN 5",
		"1 2 1.0 1.0 1.0 -Inf 5",
	}
	for i, line := range bad {
		if _, err := Read(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("case %d: non-finite value was accepted", i)
		} else if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("case %d: error %v does not name the non-finite value", i, err)
		}
	}
}

// MergeFiles must be idempotent: merging the merged output (or repeating
// an input) changes nothing — the property the campaign resume path leans
// on when analyses are redone after a crash.
func TestMergeFilesIdempotent(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.centers")
	b := filepath.Join(dir, "b.centers")
	if err := WriteFile(a, sample()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(b, []cosmotools.CenterRecord{
		{HaloTag: 17, MBPTag: 1, Pos: [3]float64{9, 9, 9}, Potential: -1, Count: 843},
		{HaloTag: 40, MBPTag: 2, Pos: [3]float64{5, 5, 5}, Potential: -2, Count: 77},
	}); err != nil {
		t.Fatal(err)
	}
	once, err := MergeFiles([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dir, "merged.centers")
	if err := WriteFile(merged, once); err != nil {
		t.Fatal(err)
	}
	for i, paths := range [][]string{
		{a, b, b},        // repeated input
		{a, b, merged},   // merged output folded back in
		{merged, merged}, // pure self-merge
		{merged, a, b},   // order variations with the same winners
	} {
		again, err := MergeFiles(paths)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(once) {
			t.Errorf("case %d: %d records, want %d", i, len(again), len(once))
			continue
		}
		for k := range once {
			if again[k] != once[k] {
				t.Errorf("case %d: record %d = %+v, want %+v", i, k, again[k], once[k])
			}
		}
	}
}

// A corrupt input poisons the merge wholesale — wherever it sits in the
// input list, and whether it holds a malformed line or binary garbage.
// MergeFiles must never silently fold garbage into a science catalog.
func TestMergeFilesRejectsCorruptInput(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.centers")
	if err := WriteFile(good, sample()); err != nil {
		t.Fatal(err)
	}
	nonFinite := filepath.Join(dir, "nonfinite.centers")
	if err := os.WriteFile(nonFinite, []byte("7 8 1.0 NaN 1.0 -2 9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.centers")
	if err := os.WriteFile(garbage, []byte("\x00\x01garbage bytes not a catalog\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		paths      []string
		bad, cause string
	}{
		{[]string{good, nonFinite}, nonFinite, "non-finite"},
		{[]string{nonFinite, good}, nonFinite, "non-finite"},
		{[]string{garbage, good}, garbage, ""},
		{[]string{good, garbage, nonFinite}, garbage, ""},
		{[]string{garbage}, garbage, ""},
	} {
		records, err := MergeFiles(tc.paths)
		if err == nil || records != nil {
			t.Errorf("MergeFiles(%v) = %d records, err %v; want a wholesale error", tc.paths, len(records), err)
			continue
		}
		if !strings.Contains(err.Error(), tc.bad) || !strings.Contains(err.Error(), tc.cause) {
			t.Errorf("MergeFiles(%v): error %q does not name %s and its defect", tc.paths, err, tc.bad)
		}
	}
	if _, err := MergeFiles(nil); err == nil {
		t.Error("MergeFiles of no inputs returned a catalog, want an error")
	}
}
