package repro

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// buildCmds compiles the command-line tools once into a shared temp dir.
func buildCmds(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"hacc-sim", "cosmotools", "workflow-sim", "listener", "catalog-merge"} {
		bin := filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	return dir
}

// splitConfig is the CosmoTools config of the end-to-end runs: analysis at
// the final step only, halos above split (0: none) deferred to Level 2.
func splitConfig(t *testing.T, dir string, step int, linking float64, split int) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("ct-split%d.ini", split))
	text := fmt.Sprintf("[powerspectrum]\nevery = 0\nsteps = %d\n\n[halofinder]\nsteps = %d\nlinking_length = %g\nmin_size = 10\nsplit_threshold = %d\n",
		step, step, linking, split)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tagCounts reads a Level 3 catalog down to its (halo_tag, count) pairs,
// the columns a float32 Level 2 round trip cannot move.
func tagCounts(t *testing.T, path string) [][2]int64 {
	t.Helper()
	records, err := catalog.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]int64, len(records))
	for i, r := range records {
		pairs[i] = [2]int64{r.HaloTag, int64(r.Count)}
	}
	return pairs
}

// The full tool pipeline: simulate with in-situ analysis, emit Level 2,
// analyze it off-line with the stand-alone driver, merge — and the merged
// catalog must be the one an all-in-situ run of the same seed delivers.
func TestEndToEndSimulateThenOfflineAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	outDir := t.TempDir()
	const split = 200
	simulate := func(dir string, split int) string {
		out, err := exec.Command(filepath.Join(bins, "hacc-sim"),
			"-np", "32", "-steps", "40", "-box", "40", "-seed", "3",
			"-out", dir, "-cosmotools", splitConfig(t, dir, 40, 0.25, split)).CombinedOutput()
		if err != nil {
			t.Fatalf("hacc-sim: %v\n%s", err, out)
		}
		return string(out)
	}

	// 1. Simulate with the combined split active so a Level 2 file lands.
	simLog := simulate(outDir, split)
	m := regexp.MustCompile(`particles in (\d+) large halos`).FindStringSubmatch(simLog)
	if m == nil {
		t.Fatalf("hacc-sim reported no Level 2 output:\n%s", simLog)
	}
	largeHalos, _ := strconv.Atoi(m[1])
	l2Path := filepath.Join(outDir, "step040.l2.gio")
	centersPath := filepath.Join(outDir, "step040.centers")
	inSitu := tagCounts(t, centersPath)
	if len(inSitu) < 5 {
		t.Fatalf("only %d in-situ centers", len(inSitu))
	}

	// 2. Off-line centers for the Level 2 halos via the stand-alone driver:
	// one record per large halo.
	offPath := filepath.Join(outDir, "offline.centers")
	ct := exec.Command(filepath.Join(bins, "cosmotools"),
		"-in", l2Path, "-box", "40", "-np", "32", "-mode", "centers", "-out", offPath)
	if out, err := ct.CombinedOutput(); err != nil {
		t.Fatalf("cosmotools: %v\n%s", err, out)
	}
	offline := tagCounts(t, offPath)
	if len(offline) != largeHalos || largeHalos < 2 {
		t.Fatalf("off-line catalog has %d records, hacc-sim reported %d large halos (want equal, several)", len(offline), largeHalos)
	}

	// 3. The split divides the halos by size: large ones went to Level 2
	// only, small ones were centered in situ only.
	for _, p := range offline {
		if p[1] <= split {
			t.Errorf("off-line centers contain small halo %d (%d particles)", p[0], p[1])
		}
	}
	for _, p := range inSitu {
		if p[1] > split {
			t.Errorf("in-situ centers contain large halo %d (%d particles)", p[0], p[1])
		}
	}

	// Without -np the driver would size the particle mass from the Level 2
	// particle count; it must refuse instead.
	noNP := exec.Command(filepath.Join(bins, "cosmotools"), "-in", l2Path, "-box", "40", "-mode", "centers", "-out", offPath+".nonp")
	if out, err := noNP.CombinedOutput(); err == nil || !strings.Contains(string(out), "-np") {
		t.Errorf("cosmotools -mode centers without -np: err=%v, output %q; want an error naming -np", err, out)
	}

	// 4. The paper's final step: merge the two catalogs into the complete
	// Level 3 product — the same halos an all-in-situ run finds.
	mergedPath := filepath.Join(outDir, "complete.centers")
	merge := exec.Command(filepath.Join(bins, "catalog-merge"),
		"-out", mergedPath, centersPath, offPath)
	if out, err := merge.CombinedOutput(); err != nil {
		t.Fatalf("catalog-merge: %v\n%s", err, out)
	}
	refDir := t.TempDir()
	simulate(refDir, 0)
	merged, want := tagCounts(t, mergedPath), tagCounts(t, filepath.Join(refDir, "step040.centers"))
	if !reflect.DeepEqual(merged, want) {
		t.Errorf("merged catalog (%d in situ + %d off-line) differs from the all-in-situ run's %d halos:\n got %v\nwant %v",
			len(inSitu), len(offline), len(want), merged, want)
	}
}

// The listener must notice a new Level 2 file and run the analysis command
// on it.
func TestEndToEndListenerCoScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	outDir := t.TempDir()

	// Stage a Level 2 file: at this seed the largest halo holds 437
	// particles, far above the split.
	sim := exec.Command(filepath.Join(bins, "hacc-sim"),
		"-np", "16", "-steps", "30", "-box", "24", "-seed", "11", "-out", outDir,
		"-cosmotools", splitConfig(t, outDir, 30, 0.3, 50))
	if out, err := sim.CombinedOutput(); err != nil {
		t.Fatalf("hacc-sim: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(outDir, "step030.l2.gio")); err != nil {
		t.Fatalf("no Level 2 output: %v", err)
	}

	// Listener: analyze each .l2.gio with cosmotools, exit when idle.
	listener := exec.Command(filepath.Join(bins, "listener"),
		"-watch", outDir, "-pattern", ".l2.gio",
		"-poll", "100ms", "-until-idle", "2s",
		"-cmd", filepath.Join(bins, "cosmotools")+" -mode centers -box 24 -np 16 -in {file} -out {file}.centers")
	out, err := listener.CombinedOutput()
	if err != nil {
		t.Fatalf("listener: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "submitting analysis job") {
		t.Fatalf("listener never submitted a job:\n%s", out)
	}
	centers := tagCounts(t, filepath.Join(outDir, "step030.l2.gio.centers"))
	if len(centers) == 0 {
		t.Fatalf("listener job produced no centers:\n%s", out)
	}
	for _, p := range centers {
		if p[1] <= 50 {
			t.Errorf("listener job centered small halo %d (%d particles)", p[0], p[1])
		}
	}
}

// workflow-sim must run every experiment without error.
func TestEndToEndWorkflowSim(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	// The planner's bytes: sha256 of standard output at the default seed,
	// taken on amd64 from the binary of the commit before internal/cosmo
	// cached σ(R). A model-layer optimisation must leave both unmoved.
	var out []byte
	for _, pin := range []struct{ args, sha256 string }{
		{"-table 3", "7750e0db4fab0e59151b60e52dedd7033a46a5ea47b3aab091370a5f3d0ee9be"},
		{"-all", "b3f4be9d8caa07a8ad20cd8237685485be467b0e38b020982456d2f155ec2717"},
	} {
		cmd := exec.Command(filepath.Join(bins, "workflow-sim"), strings.Fields(pin.args)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		var err error
		if out, err = cmd.Output(); err != nil {
			t.Fatalf("workflow-sim %s: %v\n%s%s", pin.args, err, out, stderr.Bytes())
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != pin.sha256 {
			t.Errorf("workflow-sim %s: stdout sha256 %s, want %s (%d lines)", pin.args, got, pin.sha256, bytes.Count(out, []byte("\n")))
		}
	}
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 3", "Figure 4",
		"Q Continuum", "Subhalo imbalance", "Automated split rule", "Co-scheduling",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q", want)
		}
	}

	// CI's "Campaign crash/resume smoke", verbatim: the crashed run
	// prints the flag-less resume command, and that command must
	// complete the campaign.
	dir := filepath.Join(t.TempDir(), "camp")
	for _, args := range [][]string{
		{"-campaign", "4", "-out", dir, "-crash-time", "2000"},
		{"-resume", dir},
	} {
		if out, err := exec.Command(filepath.Join(bins, "workflow-sim"), args...).CombinedOutput(); err != nil {
			t.Fatalf("workflow-sim %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "catalog.txt")); err != nil {
		t.Errorf("crash + flag-less resume left no merged catalog: %v", err)
	}
}

// Every example must run to completion — they are the library's living
// documentation.
func TestEndToEndExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	for _, name := range []string{"quickstart", "halopipeline", "workflows", "insitu", "tracking", "intransit"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./examples/"+name).CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", name, err, out)
			}
			if len(out) < 100 {
				t.Errorf("%s produced almost no output:\n%s", name, out)
			}
		})
	}
}

// The input-deck path: §3's "simulation 'input deck' ... includes a
// trigger for CosmoTools and a pointer to the CosmoTools configuration
// file".
func TestEndToEndInputDeck(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	outDir := t.TempDir()
	ctCfg := filepath.Join(outDir, "ct.ini")
	if err := os.WriteFile(ctCfg, []byte("[halofinder]\nsteps = 25\nlinking_length = 0.3\nmin_size = 10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	deck := filepath.Join(outDir, "input.deck")
	deckText := `
[simulation]
np = 16
ng = 16
box = 24
z_init = 50
z_final = 0
steps = 25
seed = 4
output_dir = ` + outDir + `

[cosmotools]
enabled = true
config = ` + ctCfg + `
`
	if err := os.WriteFile(deck, []byte(deckText), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(bins, "hacc-sim"), "-deck", deck).CombinedOutput()
	if err != nil {
		t.Fatalf("hacc-sim -deck: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "16^3") {
		t.Errorf("deck np not honoured:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(outDir, "step025.centers")); err != nil {
		t.Errorf("deck-driven run produced no centers: %v", err)
	}
	// cosmotools disabled via the deck.
	outDir2 := t.TempDir()
	deck2 := filepath.Join(outDir2, "off.deck")
	if err := os.WriteFile(deck2, []byte("[simulation]\nnp = 16\nsteps = 5\nbox = 24\noutput_dir = "+outDir2+"\n\n[cosmotools]\nenabled = false\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(filepath.Join(bins, "hacc-sim"), "-deck", deck2).CombinedOutput(); err != nil {
		t.Fatalf("disabled deck: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(outDir2, "step005.centers")); err == nil {
		t.Error("cosmotools disabled but centers were written")
	}
}
