package repro

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cosmotools"
	"repro/internal/gio"
	"repro/internal/periodic"
)

var (
	cmdsOnce sync.Once
	cmdsDir  string // removed by TestMain
	cmdsErr  error
	// buildFlags are passed to go build before the output flag: -race
	// when the test binary itself is race-built (race_test.go).
	buildFlags []string
)

// buildCmds compiles the command-line tools once per test binary into a
// shared temp dir; a failed build fails every test that asks for them.
// A race-built tool that sees a data race exits 66, which fails the test
// that ran it as any unexpected exit status does.
func buildCmds(t *testing.T) string {
	t.Helper()
	cmdsOnce.Do(func() {
		if cmdsDir, cmdsErr = os.MkdirTemp("", "repro-cmds-"); cmdsErr != nil {
			return
		}
		for _, name := range []string{"hacc-sim", "cosmotools", "workflow-sim", "listener", "catalog-merge"} {
			args := append(append([]string{"build"}, buildFlags...), "-o", filepath.Join(cmdsDir, name), "./cmd/"+name)
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				cmdsErr = fmt.Errorf("building %s: %v\n%s", name, err, out)
				return
			}
		}
	})
	if cmdsErr != nil {
		t.Fatal(cmdsErr)
	}
	return cmdsDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if cmdsDir != "" {
		os.RemoveAll(cmdsDir)
	}
	os.Exit(code)
}

// splitConfig is the CosmoTools config of the end-to-end runs: analysis at
// the final step only, halos above split (0: none) deferred to Level 2.
func splitConfig(t *testing.T, dir string, step int, linking float64, split int) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("ct-step%d-split%d.ini", step, split))
	text := fmt.Sprintf("[powerspectrum]\nevery = 0\nsteps = %d\n\n[halofinder]\nsteps = %d\nlinking_length = %g\nmin_size = 10\nsplit_threshold = %d\n",
		step, step, linking, split)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readFile reads a file or fails the test.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readCatalog reads a Level 3 catalog, sorted by halo tag.
func readCatalog(t *testing.T, path string) []cosmotools.CenterRecord {
	t.Helper()
	records, err := catalog.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// combinedRun is one seed of the combined workflow at 32³ in a 40 Mpc/h
// box, in a fresh directory: hacc-sim with in-situ analysis at step 40
// and halos above split (0: none) deferred to Level 2, then, if split is
// set, the stand-alone driver's off-line centers for the Level 2 file.
// Given procs, it runs once per value with both children's GOMAXPROCS set
// to it, and the products — step040.centers, step040.l2.gio and
// offline.centers — must be byte-equal across the runs. It returns the
// first run's directory and hacc-sim log.
func combinedRun(t *testing.T, bins string, seed, split int, procs ...int) (dir, simLog string) {
	t.Helper()
	if len(procs) == 0 {
		procs = []int{0} // the test's own GOMAXPROCS
	}
	products := []string{"step040.centers"}
	if split > 0 {
		products = append(products, "step040.l2.gio", "offline.centers")
	}
	var first [][]byte
	for i, p := range procs {
		d := t.TempDir()
		run := func(name string, args ...string) string {
			t.Helper()
			cmd := exec.Command(filepath.Join(bins, name), args...)
			if p > 0 {
				cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", p))
			}
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s (GOMAXPROCS %d): %v\n%s", name, p, err, out)
			}
			return string(out)
		}
		log := run("hacc-sim", "-np", "32", "-steps", "40", "-box", "40", "-seed", strconv.Itoa(seed),
			"-out", d, "-cosmotools", splitConfig(t, d, 40, 0.25, split))
		if split > 0 {
			run("cosmotools", "-in", filepath.Join(d, "step040.l2.gio"), "-box", "40", "-np", "32",
				"-mode", "centers", "-out", filepath.Join(d, "offline.centers"))
		}
		for k, name := range products {
			b, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = append(first, b)
			} else if !bytes.Equal(b, first[k]) {
				t.Errorf("seed %d split %d: %s differs between GOMAXPROCS %d and %d", seed, split, name, procs[0], p)
			}
		}
		if i == 0 {
			dir, simLog = d, log
		}
	}
	return dir, simLog
}

// The full tool pipeline: simulate with in-situ analysis, emit Level 2,
// analyze it off-line with the stand-alone driver, merge — and the merged
// catalog must be the one an all-in-situ run of the same seed delivers,
// at a small split and at the median halo size. Halo tags, most bound
// particles' tags and counts must be equal; a flipped center fails on
// its mbp_tag. Centers and potentials may differ only by Level 2's
// float32 rounding (gio version 1): each Level 2 coordinate is within
// δ = box·2⁻²⁴ of the simulation's, so the off-line MBP position moves by
// at most δ per axis, and every pair separation r by at most Δ = 2√3·δ.
// The MBP's potential is Φ = Σ −m/(r_j + ε) over the other members j; a
// term moves by m·|r − r'|/((r + ε)(r' + ε)), at most its own size times
// Δ/(r − Δ + ε), and every term has the same sign, so Φ moves by at most
// the largest such factor: the nearest member's, at distance d. The
// record's relative bound is thus Δ/(d − Δ + ε), with d read from the
// Level 2 file. The catalog prints x, y, z with %.6f and the potential
// with %.6g, which adds 2·0.5e-6 and a relative 2·5e-6; a halo centered
// in situ in both runs differs by that rounding at most.
func TestEndToEndSimulateThenOfflineAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	const (
		box       = 40.0
		softening = 1e-3 // cmd/cosmotools' off-line centers
	)
	delta := box / (1 << 24)
	posTol := delta + 2*0.5e-6
	sepTol := 2 * math.Sqrt(3) * delta
	const printTol = 2 * 5e-6

	for _, seed := range []int{3, 8} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			refDir, _ := combinedRun(t, bins, seed, 0)
			want := readCatalog(t, filepath.Join(refDir, "step040.centers"))
			if len(want) < 10 {
				t.Fatalf("seed %d: only %d halos in the all-in-situ run", seed, len(want))
			}
			sizes := make([]int, len(want))
			for i, r := range want {
				sizes[i] = r.Count
			}
			sort.Ints(sizes)
			// The small split is min_size: every halo above the minimum
			// goes off-line.
			for _, split := range []int{10, sizes[len(sizes)/2]} {
				t.Run(fmt.Sprintf("split=%d", split), func(t *testing.T) {
					// 1. Simulate with the combined split active so a Level 2
					// file lands, and center its halos off-line: one record
					// per large halo. Seed 3's small split runs at GOMAXPROCS
					// 1, 2 and 4, and its products must not depend on it.
					var procs []int
					if seed == 3 && split == 10 {
						procs = []int{1, 2, 4}
					}
					dir, simLog := combinedRun(t, bins, seed, split, procs...)
					m := regexp.MustCompile(`particles in (\d+) large halos`).FindStringSubmatch(simLog)
					if m == nil {
						t.Fatalf("hacc-sim reported no Level 2 output:\n%s", simLog)
					}
					largeHalos, _ := strconv.Atoi(m[1])
					centersPath, offPath := filepath.Join(dir, "step040.centers"), filepath.Join(dir, "offline.centers")
					inSitu, offline := readCatalog(t, centersPath), readCatalog(t, offPath)
					if len(offline) != largeHalos || largeHalos < 2 {
						t.Fatalf("off-line catalog has %d records, hacc-sim reported %d large halos (want equal, several)", len(offline), largeHalos)
					}

					// 2. The split divides the halos by size: large ones went
					// to Level 2 only, small ones were centered in situ only.
					for _, r := range offline {
						if r.Count <= split {
							t.Errorf("off-line centers contain small halo %d (%d particles)", r.HaloTag, r.Count)
						}
					}
					for _, r := range inSitu {
						if r.Count > split {
							t.Errorf("in-situ centers contain large halo %d (%d particles)", r.HaloTag, r.Count)
						}
					}

					// Without -np the driver would size the particle mass from
					// the Level 2 particle count; it must refuse instead.
					noNP := exec.Command(filepath.Join(bins, "cosmotools"), "-in", filepath.Join(dir, "step040.l2.gio"),
						"-box", "40", "-mode", "centers", "-out", filepath.Join(dir, "nonp.centers"))
					if out, err := noNP.CombinedOutput(); err == nil || !strings.Contains(string(out), "-np") {
						t.Errorf("cosmotools -mode centers without -np: err=%v, output %q; want an error naming -np", err, out)
					}

					// 3. The paper's final step: merge the two catalogs into
					// the complete Level 3 product.
					mergedPath := filepath.Join(dir, "complete.centers")
					if out, err := exec.Command(filepath.Join(bins, "catalog-merge"), "-out", mergedPath, centersPath, offPath).CombinedOutput(); err != nil {
						t.Fatalf("catalog-merge: %v\n%s", err, out)
					}
					nearest := mbpNearest(t, filepath.Join(dir, "step040.l2.gio"), box, offline)
					merged := readCatalog(t, mergedPath)
					if len(merged) != len(want) {
						t.Fatalf("merged catalog (%d in situ + %d off-line) has %d halos, the all-in-situ run %d",
							len(inSitu), len(offline), len(merged), len(want))
					}
					for i, got := range merged {
						w := want[i]
						if got.HaloTag != w.HaloTag || got.MBPTag != w.MBPTag || got.Count != w.Count {
							t.Errorf("record %d: (halo_tag, mbp_tag, count) = (%d, %d, %d), all-in-situ (%d, %d, %d)",
								i, got.HaloTag, got.MBPTag, got.Count, w.HaloTag, w.MBPTag, w.Count)
							continue
						}
						for a := 0; a < 3; a++ {
							if d := math.Abs(got.Pos[a] - w.Pos[a]); d > posTol {
								t.Errorf("halo %d: center %v, all-in-situ %v (axis %d off by %.3g > %.3g)", got.HaloTag, got.Pos, w.Pos, a, d, posTol)
							}
						}
						potTol := printTol
						if d, ok := nearest[got.HaloTag]; ok {
							potTol += sepTol / (d - sepTol + softening)
						}
						if d := math.Abs(got.Potential - w.Potential); d > potTol*math.Abs(w.Potential) {
							t.Errorf("halo %d: potential %g, all-in-situ %g (relative %.3g > %.3g)", got.HaloTag, got.Potential, w.Potential, d/math.Abs(w.Potential), potTol)
						}
					}
				})
			}
		})
	}
}

// mbpNearest maps the halo tag of each record to the minimum-image
// distance from its most bound particle to the nearest other particle of
// its gio block: in a Level 2 file a block is one halo, in hacc-sim's
// Level 1 snapshot the whole box.
func mbpNearest(t *testing.T, path string, box float64, records []cosmotools.CenterRecord) map[int64]float64 {
	t.Helper()
	blocks, err := gio.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type member struct{ block, index int }
	where := map[int64]member{}
	for b, blk := range blocks {
		for i, tag := range blk.Particles.Tag {
			where[tag] = member{b, i}
		}
	}
	nearest := map[int64]float64{}
	for _, r := range records {
		m, ok := where[r.MBPTag]
		if !ok {
			t.Fatalf("halo %d: most bound particle %d is not in %s", r.HaloTag, r.MBPTag, path)
		}
		p, i := blocks[m.block].Particles, m.index
		d2 := math.Inf(1)
		for j := range p.X {
			if j != i {
				dx := periodic.MinImage(p.X[j]-p.X[i], box)
				dy := periodic.MinImage(p.Y[j]-p.Y[i], box)
				dz := periodic.MinImage(p.Z[j]-p.Z[i], box)
				d2 = min(d2, dx*dx+dy*dy+dz*dz)
			}
		}
		nearest[r.HaloTag] = math.Sqrt(d2)
	}
	return nearest
}

// The off-line variant: hacc-sim writes a Level 1 snapshot at step 40 and
// analyses the same step in situ with halos above 20 particles deferred
// to Level 2; then the stand-alone driver's full mode analyses the
// snapshot from disk, and writes the same catalog at split 0 and 20. It
// must be the combined workflow's (the
// in-situ centers merged with the Level 2 file's off-line centers) in
// halo tags, most bound particles' tags and counts. Full mode reads the
// float32 Level 1 file, so positions and potentials may differ by
// Level 1's rounding, bounded as in TestEndToEndSimulateThenOfflineAnalysis
// but with d the distance from the most bound particle to the nearest
// particle of the whole box: no farther than its nearest member, so the
// bound only loosens.
func TestEndToEndOfflineFullMode(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	const (
		box       = 40.0
		softening = 1e-3 // the halo finder's default
	)
	delta := box / (1 << 24)
	posTol := delta + 2*0.5e-6
	sepTol := 2 * math.Sqrt(3) * delta
	const printTol = 2 * 5e-6
	// sha256 of step040.centers, step040.l2.gio and the full-mode catalog,
	// taken on amd64 at the commit before the halo finder ran the
	// distributed analysis at one rank; the full-mode one at split 0.
	pins := map[int][3]string{
		3: {"a0ffc768e69ce11f71d30d07522aa31989de2a1cd6528b7447d8e79d3ee293c0",
			"8349910fc6eb6f535a0fe0c514a8bfa9647c34f5ce4ccf870735713bf5919d31",
			"f652102062e0ade608356470cda2a1a4b3633de468eddba1444b967f8a56cf9a"},
		8: {"6cfbef07631f017e9fd0cf83fe7c06ddd65c786bdc2f75d6d377dfbc19ee382e",
			"5494b9d9c99a2b30155ff351debc7c97ddb1f905ec33a943e9d59209ed821685",
			"7160407e488536dad3f97430518def273aa479287da157b2963be11c4cef125c"},
	}
	for _, seed := range []int{3, 8} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			run := func(name string, args ...string) {
				t.Helper()
				if out, err := exec.Command(filepath.Join(bins, name), args...).CombinedOutput(); err != nil {
					t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
				}
			}
			deck := filepath.Join(dir, "input.deck")
			deckText := fmt.Sprintf("[simulation]\nnp = 32\nbox = 40\nsteps = 40\nsnapshot_every = 40\nseed = %d\noutput_dir = %s\n\n[cosmotools]\nenabled = true\nconfig = %s\n",
				seed, dir, splitConfig(t, dir, 40, 0.25, 20))
			if err := os.WriteFile(deck, []byte(deckText), 0o644); err != nil {
				t.Fatal(err)
			}
			run("hacc-sim", "-deck", deck)
			l1, l2 := filepath.Join(dir, "step040.gio"), filepath.Join(dir, "step040.l2.gio")
			fullPath := filepath.Join(dir, "full.centers")
			run("cosmotools", "-in", l1, "-box", "40", "-config", splitConfig(t, dir, 1, 0.25, 0), "-out", fullPath)
			run("cosmotools", "-in", l1, "-box", "40", "-config", splitConfig(t, dir, 1, 0.25, 20), "-out", filepath.Join(dir, "full20.centers"))
			run("cosmotools", "-in", l2, "-box", "40", "-np", "32", "-mode", "centers", "-out", filepath.Join(dir, "offline.centers"))
			// Full mode centers the halos its split defers itself.
			if a, b := readFile(t, fullPath), readFile(t, filepath.Join(dir, "full20.centers")); !bytes.Equal(a, b) {
				t.Errorf("seed %d: full mode at split 20 wrote %d bytes, at split 0 %d; want the same catalog", seed, len(b), len(a))
			}

			if runtime.GOARCH == "amd64" {
				for k, name := range []string{"step040.centers", "step040.l2.gio", "full.centers"} {
					if got := fmt.Sprintf("%x", sha256.Sum256(readFile(t, filepath.Join(dir, name)))); got != pins[seed][k] {
						t.Errorf("seed %d: %s sha256 %s, want %s", seed, name, got, pins[seed][k])
					}
				}
			}

			want, err := cosmotools.MergeCenters(readCatalog(t, filepath.Join(dir, "step040.centers")),
				readCatalog(t, filepath.Join(dir, "offline.centers")))
			if err != nil {
				t.Fatal(err)
			}
			full := readCatalog(t, fullPath)
			if len(full) != len(want) || len(want) < 10 {
				t.Fatalf("seed %d: full mode wrote %d centers, the combined workflow %d (want equal, at least 10)", seed, len(full), len(want))
			}
			nearest := mbpNearest(t, l1, box, full)
			for i, got := range full {
				w := want[i]
				if got.HaloTag != w.HaloTag || got.MBPTag != w.MBPTag || got.Count != w.Count {
					t.Errorf("record %d: (halo_tag, mbp_tag, count) = (%d, %d, %d), combined (%d, %d, %d)",
						i, got.HaloTag, got.MBPTag, got.Count, w.HaloTag, w.MBPTag, w.Count)
					continue
				}
				for a := 0; a < 3; a++ {
					if d := math.Abs(got.Pos[a] - w.Pos[a]); d > posTol {
						t.Errorf("halo %d: center %v, combined %v (axis %d off by %.3g > %.3g)", got.HaloTag, got.Pos, w.Pos, a, d, posTol)
					}
				}
				potTol := printTol + sepTol/(nearest[got.HaloTag]-sepTol+softening)
				if d := math.Abs(got.Potential - w.Potential); d > potTol*math.Abs(w.Potential) {
					t.Errorf("halo %d: potential %g, combined %g (relative %.3g > %.3g)", got.HaloTag, got.Potential, w.Potential, d/math.Abs(w.Potential), potTol)
				}
			}
		})
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
		"-poll", "50ms", "-until-idle", "250ms",
		"-cmd", filepath.Join(bins, "cosmotools")+" -mode centers -box 24 -np 16 -in {file} -out {file}.centers")
	out, err := listener.CombinedOutput()
	if err != nil {
		t.Fatalf("listener: %v\n%s", err, out)
	}
	// One Level 2 file, one job: the job's own step030.l2.gio.centers is
	// not a candidate, and no job may fail unnoticed.
	if n := strings.Count(string(out), "submitting analysis job"); n != 1 {
		t.Fatalf("listener submitted %d jobs, want 1:\n%s", n, out)
	}
	if strings.Contains(string(out), "failed") {
		t.Fatalf("a listener job failed:\n%s", out)
	}
	centers := readCatalog(t, filepath.Join(outDir, "step030.l2.gio.centers"))
	if len(centers) == 0 {
		t.Fatalf("listener job produced no centers:\n%s", out)
	}
	for _, r := range centers {
		if r.Count <= 50 {
			t.Errorf("listener job centered small halo %d (%d particles)", r.HaloTag, r.Count)
		}
	}
}

// The real listener keeps the model's rules: a failed job is offered
// again at the next poll, up to sched.RetryMaxAttempts attempts in all;
// a file that gives up is named and the listener exits 1; a restart with
// the same -state reruns only what never completed; and only names ending
// with -pattern are candidates, so neither an interrupted commit's temp
// file nor a job's own output is ever submitted.
func TestEndToEndListenerRetriesAndRequeues(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	// runListener watches a fresh directory holding the named files with a
	// job that logs its file, fails on step003 always and on step002 once,
	// and otherwise writes {file}.centers. It returns the listener's exit
	// code and output and the files the jobs ran on, in order.
	runListener := func(dir string, files ...string) (int, string, []string) {
		t.Helper()
		for _, name := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		script := `echo "$1" >> "$(dirname "$1")/runs.log"
case "$1" in
*step003.l2.gio) exit 1 ;;
*step002.l2.gio) [ -e "$1.tried" ] || { touch "$1.tried"; exit 1; } ;;
esac
cp "$1" "$1.centers"`
		cmd := exec.Command(filepath.Join(bins, "listener"), "-watch", dir, "-poll", "50ms", "-until-idle", "250ms",
			"-state", filepath.Join(dir, "listener.state"), "-cmd", "sh -c '"+script+"' job {file}")
		out, _ := cmd.CombinedOutput()
		runs, _ := os.ReadFile(filepath.Join(dir, "runs.log"))
		os.Remove(filepath.Join(dir, "runs.log"))
		return cmd.ProcessState.ExitCode(), string(out), strings.Fields(string(runs))
	}
	ran := func(runs []string) map[string]int {
		n := map[string]int{}
		for _, path := range runs {
			n[filepath.Base(path)]++
		}
		return n
	}

	// (i), (iv): a job that fails once is retried, and the listener exits 0.
	dir := t.TempDir()
	code, out, runs := runListener(dir, "step001.l2.gio", "step002.l2.gio", "step001.l2.gio.tmp4242")
	if want := map[string]int{"step001.l2.gio": 1, "step002.l2.gio": 2}; code != 0 || !reflect.DeepEqual(ran(runs), want) {
		t.Errorf("exit %d, jobs ran %v; want exit 0 and %v\n%s", code, ran(runs), want, out)
	}

	// (ii): a job that always fails runs RetryMaxAttempts (4) times, and
	// the listener exits 1 naming its file.
	dir = t.TempDir()
	code, out, runs = runListener(dir, "step001.l2.gio", "step003.l2.gio")
	if want := map[string]int{"step001.l2.gio": 1, "step003.l2.gio": 4}; code != 1 || !reflect.DeepEqual(ran(runs), want) {
		t.Errorf("exit %d, jobs ran %v; want exit 1 and %v\n%s", code, ran(runs), want, out)
	}
	if !regexp.MustCompile(`gave up .*step003\.l2\.gio`).MatchString(out) {
		t.Errorf("listener did not name the file that gave up:\n%s", out)
	}

	// (iii): the restart reruns only the file that gave up.
	code, out, runs = runListener(dir)
	if want := map[string]int{"step003.l2.gio": 4}; code != 1 || !reflect.DeepEqual(ran(runs), want) {
		t.Errorf("restart: exit %d, jobs ran %v; want exit 1 and %v\n%s", code, ran(runs), want, out)
	}
}

// A slot that a finished job frees takes the next ready file at once,
// not at the next poll: under -max-parallel 1, three ready files are all
// submitted within one poll interval of the first.
func TestEndToEndListenerFillsFreedSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	dir := t.TempDir()
	for _, name := range []string{"step001.l2.gio", "step002.l2.gio", "step003.l2.gio"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The idle bound outlasts the poll that first sees the files, which
	// are ready only at the next.
	const poll = 300 * time.Millisecond
	cmd := exec.Command(filepath.Join(bins, "listener"), "-watch", dir, "-max-parallel", "1",
		"-poll", poll.String(), "-until-idle", (poll * 3 / 2).String(), "-cmd", "true")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	var submitted []time.Time
	for lines := bufio.NewScanner(stderr); lines.Scan(); {
		if strings.Contains(lines.Text(), "submitting analysis job") {
			submitted = append(submitted, time.Now())
		}
		out.WriteString(lines.Text() + "\n")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("listener: %v\n%s", err, out.String())
	}
	if len(submitted) != 3 {
		t.Fatalf("listener submitted %d jobs, want 3:\n%s", len(submitted), out.String())
	}
	if spread := submitted[2].Sub(submitted[0]); spread >= poll {
		t.Errorf("three ready files were submitted over %v, not within one -poll (%v):\n%s", spread, poll, out.String())
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
	// cached σ(R). A model-layer optimisation must leave both unmoved. The
	// two gray-failure runs were pinned at the commit before the fault
	// knobs became constants; they cover every gray draw the model makes.
	// The two cost runs, and the fault seeds 10 (a straggler, a spent
	// hedge budget and a rescue) and 38 (a job retried to its last
	// attempt), were pinned at the commit before the supervision, retry
	// and charge settings became constants. "-all" stays last: the checks
	// after the loop read its output.
	var out []byte
	for _, pin := range []struct{ args, sha256 string }{
		{"-table 3", "7750e0db4fab0e59151b60e52dedd7033a46a5ea47b3aab091370a5f3d0ee9be"},
		{"-resilience -gray", "71199452f567fb3e7fb56524c5733adb59835eee5194058a351b903e59128ba2"},
		{"-campaign 12 -gray -step-budget 900 -decisions", "6fcecb6a306a4dc3daa98246b1078c5d2dd4e22bc95c65b0a0168dc7afca3e27"},
		{"-cost -metrics", "ccef83751ca1bcdbdf4ca46b66589e71d1cc927abd8d540c508bb2424e2af3f1"},
		{"-campaign 12 -cost -metrics", "416dd07df91d0684177d28098eaeab68177e704d4af6fbb06ded427d487f4623"},
		{"-campaign 12 -gray -decisions -fault-seed 10", "02b34fd3bc723ace6046e1a6b1d2420cbe8e3237c364f7b4ed62dc981bed2ba2"},
		{"-resilience -fault-seed 38", "c55b5711d59634432047d8947b0f9acd10ba966efde95c635a4eb23d04cb1d7b"},
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
		if pin.args == "-table 3" { // EXPERIMENTS.md's Repro column is this output's core hours
			doc, err := os.ReadFile("EXPERIMENTS.md")
			if err != nil {
				t.Fatal(err)
			}
			hours := func(re string, b []byte) (s []string) {
				for _, m := range regexp.MustCompile(re).FindAllSubmatch(b, -1) {
					s = append(s, string(m[1]))
				}
				return s
			}
			printed := hours(`(?m) (\d+)$`, out)
			documented := hours(`(?m)\| (\d+) \|$`, regexp.MustCompile(`(?s)## Table 3 .*?\n## `).Find(doc))
			if !reflect.DeepEqual(printed, documented) {
				t.Errorf("workflow-sim -table 3 prints core hours %v, EXPERIMENTS.md's Table 3 has %v", printed, documented)
			}
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

	// Crash and resume: the crashed run prints the flag-less resume
	// command, and that command must complete the campaign.
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

// A flag the selected run never reads is an error (exit 2, naming the
// flag and what it needs), not a run that silently ignores it.
func TestWorkflowSimRejectsIgnoredFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	dir := filepath.Join(t.TempDir(), "camp")
	for _, c := range []struct{ args, want string }{
		{"-campaign 6 -gray -step-budget 900 -out " + dir, "-gray needs an in-memory run"},
		{"-resume " + dir + " -gray", "-gray needs an in-memory run"},
		{"-campaign 6 -out " + dir + " -step-budget 900", "-step-budget needs an in-memory campaign"},
		{"-campaign 6 -step-budget 900", "-step-budget needs -gray"},
		{"-campaign 6 -crash-time 500", "-crash-time needs -out or -resume"},
		{"-campaign 6 -bitrot 0.5", "-bitrot needs -out or -resume"},
		{"-campaign 6 -scrub 300", "-scrub needs -out or -resume"},
		{"-table 3 -decisions -bitrot 0.5", "-bitrot needs -out or -resume"},
		{"-table 3 -decisions", "-decisions needs a campaign"},
		{"-resilience -gray -decisions", "-decisions needs a campaign"},
		{"-campaign 6 -decisions", "-decisions needs a campaign"},
		{"-campaign 6 -out " + dir + " -decisions", "-decisions needs a campaign"},
	} {
		cmd := exec.Command(filepath.Join(bins, "workflow-sim"), strings.Fields(c.args)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("workflow-sim %s: exit %d (%v), want 2\n%s", c.args, code, err, out)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("workflow-sim %s: stderr %q, want it to contain %q", c.args, stderr.String(), c.want)
		}
	}
	if _, err := os.Stat(dir); err == nil {
		t.Errorf("a rejected invocation created %s", dir)
	}
}

// The listener rejects a job limit or poll interval it cannot run with,
// naming the flag, before it watches anything. The -until-idle bound
// ends a run that accepted the flag.
func TestListenerRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	watch := t.TempDir()
	for _, c := range []struct{ args, want string }{
		{"-max-parallel 0 -poll 10ms -until-idle 200ms", "-max-parallel must be at least 1"},
		{"-max-parallel -1 -poll 10ms -until-idle 200ms", "-max-parallel must be at least 1"},
		{"-poll 0 -until-idle 200ms", "-poll must be positive"},
		{"-poll -1s -until-idle 200ms", "-poll must be positive"},
	} {
		cmd := exec.Command(filepath.Join(bins, "listener"), append([]string{"-watch", watch}, strings.Fields(c.args)...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("listener %s: exit %d (%v), want 2\n%s", c.args, code, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("listener %s: stderr %q, want it to contain %q", c.args, stderr.String(), c.want)
		}
	}
}

// A restarted simulation is bit-identical to an uninterrupted one: resumed
// from the step 3 checkpoint, hacc-sim writes the same step 6 checkpoint
// bytes as the run that never stopped.
func TestEndToEndCheckpointRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test")
	}
	bins := buildCmds(t)
	dir := t.TempDir()
	first, second := filepath.Join(dir, "sim1"), filepath.Join(dir, "sim2")
	// A commit interrupted by the kill leaves its temp file behind; the
	// restart sweeps it.
	stale := filepath.Join(second, "step003.l2.gio.tmp1")
	if err := os.MkdirAll(second, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-np", "8", "-steps", "6", "-checkpoint-every", "3", "-analyze-every", "6", "-out", first},
		{"-restart-from", filepath.Join(first, "ckpt003.bin"), "-checkpoint-every", "3", "-analyze-every", "6", "-out", second},
	} {
		if out, err := exec.Command(filepath.Join(bins, "hacc-sim"), args...).CombinedOutput(); err != nil {
			t.Fatalf("hacc-sim %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	want, err := os.ReadFile(filepath.Join(first, "ckpt006.bin"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(second, "ckpt006.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restarted run's step 6 checkpoint differs from the uninterrupted run's (%d vs %d bytes)", len(got), len(want))
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("restart left the stale temp %s (stat: %v)", stale, err)
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
snapshot_every = 5
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
	// snapshot_every = 5: a Level 1 snapshot at steps 5, 10, ..., 25 and
	// at no other step.
	gios, err := filepath.Glob(filepath.Join(outDir, "*.gio"))
	if err != nil {
		t.Fatal(err)
	}
	var level1 []string
	for _, p := range gios {
		if !strings.HasSuffix(p, ".l2.gio") {
			level1 = append(level1, filepath.Base(p))
		}
	}
	want := []string{"step005.gio", "step010.gio", "step015.gio", "step020.gio", "step025.gio"}
	if !reflect.DeepEqual(level1, want) {
		t.Errorf("Level 1 snapshots %v, want %v", level1, want)
	}
	blocks, err := gio.ReadFile(filepath.Join(outDir, "step015.gio"))
	if err != nil {
		t.Fatalf("reading a Level 1 snapshot: %v", err)
	}
	if n := gio.Merge(blocks).N(); n != 16*16*16 {
		t.Errorf("Level 1 snapshot holds %d particles, want %d", n, 16*16*16)
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
