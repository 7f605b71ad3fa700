package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/ckpt"
	"repro/internal/fault"
)

func resumeScenario(t *testing.T, seed int64, crashes []fault.Crash) *Scenario {
	t.Helper()
	s, err := DownscaledScenario(seed)
	if err != nil {
		t.Fatal(err)
	}
	s.PostQueueWait = 0
	if len(crashes) > 0 {
		s.Faults = &fault.Profile{Crashes: crashes}
	}
	return s
}

// runToCompletion re-runs the campaign until it survives its crash
// schedule, returning the final report and the number of crashes endured.
func runToCompletion(t *testing.T, seed int64, timesteps int, dir string, crashes []fault.Crash) (*CampaignReport, int) {
	t.Helper()
	crashCount := 0
	for gen := 0; gen <= len(crashes)+1; gen++ {
		rep, err := ResumableCampaign(resumeScenario(t, seed, crashes), timesteps, dir, seed)
		if errors.Is(err, ErrCampaignCrashed) {
			crashCount++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		return rep, crashCount
	}
	t.Fatalf("campaign in %s never completed", dir)
	return nil, 0
}

// snapshotProducts reads every delivered product under dir, keyed by
// relative path.
func snapshotProducts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, rel := range []string{"l2", "centers"} {
		entries, err := os.ReadDir(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, rel, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[rel+"/"+e.Name()] = data
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "catalog.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out["catalog.txt"] = data
	return out
}

func sameProducts(t *testing.T, want, got map[string][]byte, label string) {
	t.Helper()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(got) != len(want) {
		t.Errorf("%s: %d products, want %d", label, len(got), len(want))
	}
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: product %s missing", label, k)
			continue
		}
		if !reflect.DeepEqual(want[k], g) {
			t.Errorf("%s: product %s not byte-identical", label, k)
		}
	}
}

// A persisted campaign with no crashes must behave exactly like the plain
// in-memory Campaign: same report (ResumeStats zero), plus the full
// product set on disk.
func TestResumableZeroCrashMatchesCampaign(t *testing.T) {
	const seed, steps = 1, 4
	dir := t.TempDir()
	persisted, err := ResumableCampaign(resumeScenario(t, seed, nil), steps, dir, seed)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Campaign(resumeScenario(t, seed, nil), steps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(persisted, plain) {
		t.Errorf("persisted campaign report diverged from Campaign:\n%+v\nvs\n%+v", persisted, plain)
	}
	products := snapshotProducts(t, dir)
	if len(products) != 2*steps+1 {
		t.Errorf("%d products on disk, want %d", len(products), 2*steps+1)
	}
}

// The tentpole torn-run property: crash at a virtual time, resume, crash
// again mid-write of a step's Level 2 file (leaving a torn unjournaled
// file), resume again — and the delivered products converge byte-for-byte
// to those of a crash-free run. Runs under -race in CI.
func TestTornRunProperty(t *testing.T) {
	const seed, steps = 1, 5

	cleanDir := t.TempDir()
	clean, crashCount := runToCompletion(t, seed, steps, cleanDir, nil)
	if crashCount != 0 {
		t.Fatalf("crash-free run crashed %d times", crashCount)
	}
	want := snapshotProducts(t, cleanDir)

	stepDur := clean.SimWallClock / steps
	crashes := []fault.Crash{
		{AtTime: 2.5 * stepDur}, // generation 0: killed mid-campaign
		{AtStep: steps - 1},     // generation 1: killed mid-write (torn file)
	}
	tornDir := t.TempDir()
	rep, crashCount := runToCompletion(t, seed, steps, tornDir, crashes)
	if crashCount != 2 {
		t.Fatalf("endured %d crashes, want 2", crashCount)
	}
	if rep.Resume.Generation != 2 {
		t.Errorf("final generation %d, want 2", rep.Resume.Generation)
	}
	if rep.Resume.StepsSkipped == 0 {
		t.Error("final incarnation redid every step; expected journaled work to be skipped")
	}
	if rep.Resume.TornFiles == 0 {
		t.Error("the mid-write kill left no torn file to reconcile")
	}
	sameProducts(t, want, snapshotProducts(t, tornDir), "torn run")

	// Determinism: the same crash schedule replayed into a fresh directory
	// yields byte-identical products again.
	againDir := t.TempDir()
	if _, crashCount := runToCompletion(t, seed, steps, againDir, crashes); crashCount != 2 {
		t.Fatalf("replay endured %d crashes, want 2", crashCount)
	}
	sameProducts(t, want, snapshotProducts(t, againDir), "replayed torn run")
}

// Resuming a journal under different campaign parameters must be refused,
// not silently mixed.
func TestResumeRefusesParameterMismatch(t *testing.T) {
	const steps = 3
	dir := t.TempDir()
	if _, err := ResumableCampaign(resumeScenario(t, 1, nil), steps, dir, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumableCampaign(resumeScenario(t, 2, nil), steps, dir, 2); err == nil {
		t.Error("resume with a different seed was accepted")
	}
	if _, err := ResumableCampaign(resumeScenario(t, 1, nil), steps+1, dir, 1); err == nil {
		t.Error("resume with a different horizon was accepted")
	}
}

// A fully completed campaign resumes as a no-op: nothing is redone and the
// products are untouched.
func TestResumeCompletedCampaign(t *testing.T) {
	const seed, steps = 1, 3
	dir := t.TempDir()
	if _, err := ResumableCampaign(resumeScenario(t, seed, nil), steps, dir, seed); err != nil {
		t.Fatal(err)
	}
	want := snapshotProducts(t, dir)
	rep, err := ResumableCampaign(resumeScenario(t, seed, nil), steps, dir, seed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resume.StepsSkipped != steps || rep.Resume.PostsSkipped != steps {
		t.Errorf("skipped %d/%d, want %d/%d",
			rep.Resume.StepsSkipped, rep.Resume.PostsSkipped, steps, steps)
	}
	if rep.Resume.Generation != 1 {
		t.Errorf("generation %d, want 1", rep.Resume.Generation)
	}
	sameProducts(t, want, snapshotProducts(t, dir), "no-op resume")
}

// The merged catalog's pure generator — what backfill and repair trust
// instead of disk bytes — must equal a real merge of the per-step files.
func TestMergedCatalogGeneratorMatchesMergeFiles(t *testing.T) {
	const seed, steps = 5, 12
	dir := t.TempDir()
	var paths []string
	for step := 1; step <= steps; step++ {
		path := filepath.Join(dir, filepath.Base(centersRelPath(step)))
		if err := ckpt.WriteFileAtomic(path, centersFile(step).gen(seed)); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	merged, err := catalog.MergeFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := catalog.Write(&buf, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), mergedCatalog(steps).gen(seed)) {
		t.Error("generated merged catalog differs from catalog.MergeFiles over the per-step files")
	}
}
