package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// fileEdit is one TextEdit resolved to byte offsets within its file.
type fileEdit struct {
	start, end int
	newText    []byte
}

// ApplyFixes selects and applies suggested fixes from diags, returning
// the new content of every changed file. read loads a file's current
// bytes (called once per file).
//
// Selection is deterministic and greedy, mirroring the upstream driver:
// diagnostics are visited in position order, the first SuggestedFix of
// each is taken, and a fix is dropped entirely if any of its edits
// overlaps an edit already selected for the same file. Edits never span
// files in this suite, and a fix with an invalid span (unresolvable
// position, start after end) is dropped rather than corrupting output.
func ApplyFixes(fset *token.FileSet, diags []Diagnostic, read func(filename string) ([]byte, error)) (map[string][]byte, error) {
	type cand struct {
		file string
		edit fileEdit
	}
	var fixes [][]cand // one entry per selectable fix, in position order

	sorted := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if len(d.SuggestedFixes) > 0 {
			sorted = append(sorted, d)
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		pi, pj := fset.Position(sorted[i].Pos), fset.Position(sorted[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})

	for _, d := range sorted {
		fix := d.SuggestedFixes[0]
		ok := true
		var fixEdits []cand
		for _, e := range fix.TextEdits {
			if !e.Pos.IsValid() {
				ok = false
				break
			}
			end := e.End
			if !end.IsValid() {
				end = e.Pos
			}
			start, stop := fset.Position(e.Pos), fset.Position(end)
			if start.Filename == "" || start.Filename != stop.Filename || start.Offset > stop.Offset {
				ok = false
				break
			}
			fixEdits = append(fixEdits, cand{
				file: start.Filename,
				edit: fileEdit{start: start.Offset, end: stop.Offset, newText: e.NewText},
			})
		}
		if ok && len(fixEdits) > 0 {
			fixes = append(fixes, fixEdits)
		}
	}

	// Greedy all-or-nothing selection: a fix any of whose edits overlaps
	// an already-accepted edit in the same file is dropped whole. Two
	// pure insertions at the same offset would be order-dependent, so
	// the later fix is dropped too.
	perFile := map[string][]fileEdit{}
	for _, fixEdits := range fixes {
		clash := false
		for _, c := range fixEdits {
			for _, prev := range perFile[c.file] {
				overlaps := c.edit.start < prev.end && prev.start < c.edit.end
				sameInsert := prev.start == prev.end && c.edit.start == c.edit.end && c.edit.start == prev.start
				if overlaps || sameInsert {
					clash = true
					break
				}
			}
			if clash {
				break
			}
		}
		if clash {
			continue
		}
		for _, c := range fixEdits {
			perFile[c.file] = append(perFile[c.file], c.edit)
		}
	}

	out := map[string][]byte{}
	for file, edits := range perFile {
		if len(edits) == 0 {
			continue
		}
		src, err := read(file)
		if err != nil {
			return nil, fmt.Errorf("applying fixes: %w", err)
		}
		sort.Slice(edits, func(i, j int) bool { return edits[i].start < edits[j].start })
		var buf []byte
		last := 0
		for _, e := range edits {
			if e.start < last || e.end > len(src) {
				return nil, fmt.Errorf("applying fixes: edit out of range in %s", file)
			}
			buf = append(buf, src[last:e.start]...)
			buf = append(buf, e.newText...)
			last = e.end
		}
		buf = append(buf, src[last:]...)
		out[file] = buf
	}
	return out, nil
}

// Diff renders a minimal line diff between old and new file content for
// -diff mode: common prefix and suffix lines are trimmed and the single
// changed region is shown with -/+ markers. Not a full LCS — fixes in
// this suite are local, and a one-hunk diff keeps -fix -diff's output
// readable without pulling in a diff dependency.
func Diff(filename string, oldSrc, newSrc []byte) string {
	if string(oldSrc) == string(newSrc) {
		return ""
	}
	oldLines := strings.SplitAfter(string(oldSrc), "\n")
	newLines := strings.SplitAfter(string(newSrc), "\n")
	// Trim common prefix.
	p := 0
	for p < len(oldLines) && p < len(newLines) && oldLines[p] == newLines[p] {
		p++
	}
	// Trim common suffix (not crossing the prefix).
	so, sn := len(oldLines), len(newLines)
	for so > p && sn > p && oldLines[so-1] == newLines[sn-1] {
		so--
		sn--
	}
	var b strings.Builder
	fmt.Fprintf(&b, "--- %s\n+++ %s\n", filename, filename)
	fmt.Fprintf(&b, "@@ -%d,%d +%d,%d @@\n", p+1, so-p, p+1, sn-p)
	for _, l := range oldLines[p:so] {
		b.WriteString("-" + strings.TrimSuffix(l, "\n") + "\n")
	}
	for _, l := range newLines[p:sn] {
		b.WriteString("+" + strings.TrimSuffix(l, "\n") + "\n")
	}
	return b.String()
}
