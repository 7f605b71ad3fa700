package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/integrity"
)

// bitRotScenario builds the downscaled campaign with seeded at-rest bit
// rot plus a co-scheduled background scrubber.
func bitRotScenario(t *testing.T, seed int64, crashes []fault.Crash) *Scenario {
	t.Helper()
	s := resumeScenario(t, seed, nil)
	s.Faults = &fault.Profile{Seed: seed, Crashes: crashes,
		BitRotProb: 0.5, BitRotDelaySecMin: 10, BitRotDelaySecMax: 1500}
	s.Scrub = &ScrubPolicy{Interval: 250, Batch: 3}
	return s
}

// runRotToCompletion re-runs a bit-rot campaign until it survives its
// crash schedule.
func runRotToCompletion(t *testing.T, seed int64, timesteps int, dir string, crashes []fault.Crash) (*CampaignReport, int) {
	t.Helper()
	crashCount := 0
	for gen := 0; gen <= len(crashes)+1; gen++ {
		rep, err := ResumableCampaign(bitRotScenario(t, seed, crashes), timesteps, dir, seed)
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

// decisionLog renders a report's scrub decisions as the canonical text
// log (what cmd/workflow-sim prints and CI diffs between runs).
func decisionLog(rep *CampaignReport) string {
	out := ""
	for _, d := range rep.ScrubDecisions {
		out += d.String() + "\n"
	}
	return out
}

// The tentpole property: a campaign hammered by seeded bit rot, scrubbed
// and repaired in the background, must end with products byte-identical
// to a fault-free run of the same seed — the whole pipeline is a pure
// function of the seed. And the scrub/repair decision log must replay
// identically across executions.
func TestBitRotScrubRepairProperty(t *testing.T) {
	const steps = 6
	for _, seed := range []int64{5, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cleanDir := t.TempDir()
			if _, err := ResumableCampaign(resumeScenario(t, seed, nil), steps, cleanDir, seed); err != nil {
				t.Fatal(err)
			}
			want := snapshotProducts(t, cleanDir)

			rotDir := t.TempDir()
			rep, err := ResumableCampaign(bitRotScenario(t, seed, nil), steps, rotDir, seed)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Integrity.Corruptions == 0 {
				t.Error("bit rot at prob 0.5 injected no corruption — injection is not wired")
			}
			if rep.Integrity.Repaired != rep.Integrity.Quarantined {
				t.Errorf("repaired %d of %d quarantined products", rep.Integrity.Repaired, rep.Integrity.Quarantined)
			}
			if rep.Integrity.Escalated != 0 {
				t.Errorf("%d products escalated; pure re-derivation must always converge", rep.Integrity.Escalated)
			}
			if rep.Integrity.ScrubJobs == 0 {
				t.Error("no co-scheduled scrub jobs ran")
			}
			sameProducts(t, want, snapshotProducts(t, rotDir), "bit-rot+scrub")

			// No quarantine leftovers may survive a converged campaign.
			for _, sub := range []string{"", "l2", "centers"} {
				entries, err := os.ReadDir(filepath.Join(rotDir, sub))
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if filepath.Ext(e.Name()) == ".quarantine" {
						t.Errorf("leftover quarantine file %s/%s", sub, e.Name())
					}
				}
			}

			// Replay determinism: an identical execution logs identical
			// decisions and lands identical bytes.
			rotDir2 := t.TempDir()
			rep2, err := ResumableCampaign(bitRotScenario(t, seed, nil), steps, rotDir2, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := decisionLog(rep2), decisionLog(rep); got != want {
				t.Errorf("scrub decision log not deterministic:\n--- run1 ---\n%s--- run2 ---\n%s", want, got)
			}
			if rep2.Integrity != rep.Integrity {
				t.Errorf("integrity stats differ across identical runs: %+v vs %+v", rep.Integrity, rep2.Integrity)
			}
			sameProducts(t, want, snapshotProducts(t, rotDir2), "bit-rot+scrub replay")
		})
	}
}

// Bit rot across crash/restart: the lineage ledger survives the kills,
// reconciliation repairs corruption found on resume, and the converged
// product set still matches the fault-free run byte for byte.
func TestBitRotSurvivesCrashResume(t *testing.T) {
	const seed, steps = 7, 6
	cleanDir := t.TempDir()
	if _, err := ResumableCampaign(resumeScenario(t, seed, nil), steps, cleanDir, seed); err != nil {
		t.Fatal(err)
	}
	want := snapshotProducts(t, cleanDir)

	stepDur := 775.0 + 120 // interval + in-situ/analysis work per step (approx)
	crashes := []fault.Crash{{AtTime: 2.5 * stepDur}, {AtStep: steps - 1}}
	dir := t.TempDir()
	rep, crashCount := runRotToCompletion(t, seed, steps, dir, crashes)
	if crashCount != 2 {
		t.Fatalf("crashed %d times, want 2", crashCount)
	}
	if rep.Resume.Generation != 2 {
		t.Errorf("final generation %d, want 2", rep.Resume.Generation)
	}
	if rep.Integrity.Escalated != 0 {
		t.Errorf("%d products escalated", rep.Integrity.Escalated)
	}
	sameProducts(t, want, snapshotProducts(t, dir), "bit-rot+crash+resume")

	// The whole crash-and-repair history replays identically.
	dir2 := t.TempDir()
	rep2, crashCount2 := runRotToCompletion(t, seed, steps, dir2, crashes)
	if crashCount2 != crashCount {
		t.Fatalf("replay crashed %d times, want %d", crashCount2, crashCount)
	}
	if got, wantLog := decisionLog(rep2), decisionLog(rep); got != wantLog {
		t.Errorf("decision log not deterministic across crash/resume replay:\n--- run1 ---\n%s--- run2 ---\n%s", wantLog, got)
	}
	sameProducts(t, want, snapshotProducts(t, dir2), "bit-rot+crash replay")
}

// Scrubbing with no injected faults must not perturb the campaign's
// products, and every verification must pass.
func TestScrubFaultFreeIsClean(t *testing.T) {
	const seed, steps = 3, 4
	cleanDir := t.TempDir()
	if _, err := ResumableCampaign(resumeScenario(t, seed, nil), steps, cleanDir, seed); err != nil {
		t.Fatal(err)
	}
	want := snapshotProducts(t, cleanDir)

	dir := t.TempDir()
	s := resumeScenario(t, seed, nil)
	s.Scrub = &ScrubPolicy{Interval: 300, Batch: 4}
	rep, err := ResumableCampaign(s, steps, dir, seed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Integrity.Corruptions != 0 || rep.Integrity.Quarantined != 0 {
		t.Errorf("fault-free scrub found corruption: %+v", rep.Integrity)
	}
	if rep.Integrity.Verified == 0 {
		t.Error("fault-free scrub verified nothing")
	}
	sameProducts(t, want, snapshotProducts(t, dir), "fault-free scrub")
}

// The lineage ledger records provenance: the merged catalog descends from
// every per-step centers product, which descend from their Level 2 files.
func TestLineageLedgerProvenance(t *testing.T) {
	const seed, steps = 3, 4
	dir := t.TempDir()
	s := resumeScenario(t, seed, nil)
	s.Scrub = &ScrubPolicy{}
	if _, err := ResumableCampaign(s, steps, dir, seed); err != nil {
		t.Fatal(err)
	}
	led, err := integrity.OpenLedger(filepath.Join(dir, "lineage.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if got := len(led.Products()); got != 2*steps+1 {
		t.Fatalf("%d lineage records, want %d", got, 2*steps+1)
	}
	for step := 1; step <= steps; step++ {
		down := led.Downstream(l2Path(step))
		if len(down) != 2 || down[0] != centersRelPath(step) || down[1] != "catalog.txt" {
			t.Errorf("downstream of %s = %v", l2Path(step), down)
		}
	}
	// Every ledger record matches its bytes on disk.
	for _, p := range led.Products() {
		data, err := os.ReadFile(filepath.Join(dir, p.Path))
		if err != nil {
			t.Fatal(err)
		}
		if integrity.Sum(data) != p.Sum || int64(len(data)) != p.Bytes {
			t.Errorf("ledger record for %s does not match disk", p.Path)
		}
	}
}
