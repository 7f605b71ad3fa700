package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

// The full tool pipeline: simulate with in-situ analysis, emit Level 2,
// analyze it off-line with the stand-alone driver, check the merged
// products exist and parse.
func TestEndToEndSimulateThenOfflineAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	outDir := t.TempDir()

	// 1. Simulate with the combined split active so a Level 2 file lands.
	ctCfg := filepath.Join(outDir, "ct.ini")
	if err := os.WriteFile(ctCfg, []byte(`
[powerspectrum]
every = 0
steps = 40
grid = 32
bins = 8

[halofinder]
steps = 40
linking_length = 0.25
min_size = 10
split_threshold = 200
`), 0o644); err != nil {
		t.Fatal(err)
	}
	sim := exec.Command(filepath.Join(bins, "hacc-sim"),
		"-np", "32", "-steps", "40", "-box", "40", "-seed", "3",
		"-out", outDir, "-cosmotools", ctCfg)
	if out, err := sim.CombinedOutput(); err != nil {
		t.Fatalf("hacc-sim: %v\n%s", err, out)
	}
	l2Path := filepath.Join(outDir, "step040.l2.gio")
	if _, err := os.Stat(l2Path); err != nil {
		t.Fatalf("no Level 2 output: %v", err)
	}
	centersPath := filepath.Join(outDir, "step040.centers")
	inSitu, err := os.ReadFile(centersPath)
	if err != nil {
		t.Fatalf("no in-situ centers: %v", err)
	}
	if lines := strings.Count(string(inSitu), "\n"); lines < 5 {
		t.Fatalf("only %d in-situ center lines", lines)
	}

	// 2. Off-line centers for the Level 2 halos via the stand-alone driver.
	offPath := filepath.Join(outDir, "offline.centers")
	ct := exec.Command(filepath.Join(bins, "cosmotools"),
		"-in", l2Path, "-box", "40", "-np", "32", "-mode", "centers", "-out", offPath)
	if out, err := ct.CombinedOutput(); err != nil {
		t.Fatalf("cosmotools: %v\n%s", err, out)
	}
	off, err := os.ReadFile(offPath)
	if err != nil {
		t.Fatal(err)
	}
	offLines := 0
	for _, line := range strings.Split(string(off), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			offLines++
			fields := strings.Fields(line)
			if len(fields) != 7 {
				t.Fatalf("malformed center line %q", line)
			}
		}
	}
	if offLines < 1 {
		t.Fatal("no off-line centers produced")
	}

	// 3. The in-situ file must not contain the large halos (those went to
	// Level 2), and the off-line file must contain only large ones.
	countLines := func(data []byte) int {
		n := 0
		for _, line := range strings.Split(string(data), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				n++
			}
		}
		return n
	}
	for _, line := range strings.Split(string(inSitu), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 7 && fields[6] > "200" && len(fields[6]) > 3 {
			t.Errorf("in-situ centers contain large halo: %q", line)
		}
	}

	// 4. The paper's final step: merge the two catalogs into the complete
	// Level 3 product.
	mergedPath := filepath.Join(outDir, "complete.centers")
	merge := exec.Command(filepath.Join(bins, "catalog-merge"),
		"-out", mergedPath, centersPath, offPath)
	if out, err := merge.CombinedOutput(); err != nil {
		t.Fatalf("catalog-merge: %v\n%s", err, out)
	}
	merged, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := countLines(merged), countLines(inSitu)+offLines; got != want {
		t.Errorf("merged catalog has %d halos, want %d (in-situ + off-line)", got, want)
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

	// Pre-stage a Level 2 file by running a short simulation first.
	sim := exec.Command(filepath.Join(bins, "hacc-sim"),
		"-np", "16", "-steps", "30", "-box", "24", "-seed", "11", "-out", outDir)
	if out, err := sim.CombinedOutput(); err != nil {
		t.Fatalf("hacc-sim: %v\n%s", err, out)
	}
	// The default halo finder has no split, so synthesize a Level 2 file by
	// re-running with a split config.
	ctCfg := filepath.Join(outDir, "ct.ini")
	if err := os.WriteFile(ctCfg, []byte("[halofinder]\nsteps = 30\nlinking_length = 0.3\nmin_size = 10\nsplit_threshold = 50\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sim2 := exec.Command(filepath.Join(bins, "hacc-sim"),
		"-np", "16", "-steps", "30", "-box", "24", "-seed", "11", "-out", outDir, "-cosmotools", ctCfg)
	if out, err := sim2.CombinedOutput(); err != nil {
		t.Fatalf("hacc-sim (split): %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(outDir, "step030.l2.gio")); err != nil {
		t.Skip("no halo above the split threshold in this tiny run; skipping listener check")
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
	if _, err := os.Stat(filepath.Join(outDir, "step030.l2.gio.centers")); err != nil {
		t.Fatalf("listener job produced no centers: %v\n%s", err, out)
	}
}

// workflow-sim must run every experiment without error.
func TestEndToEndWorkflowSim(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	out, err := exec.Command(filepath.Join(bins, "workflow-sim"), "-all").CombinedOutput()
	if err != nil {
		t.Fatalf("workflow-sim -all: %v\n%s", err, out)
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
