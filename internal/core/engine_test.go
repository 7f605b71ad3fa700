package core

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/supervise"
)

// writeFaultScenario is the downscaled campaign under storage faults only.
func writeFaultScenario(t *testing.T, base *Scenario, faultSeed int64) *Scenario {
	t.Helper()
	s := *base
	s.PostQueueWait = 0
	s.Faults = &fault.Profile{Seed: faultSeed, WriteFailProb: 0.10, WriteTruncateProb: 0.05}
	return &s
}

// Bench open finding 4: a write fault on the final step's Level 2 file is
// still being re-driven when the simulation job ends. The wrap-up drain
// must keep sweeping until that file lands, or the step's analysis is
// never submitted and a persisted campaign's merge fails.
func TestFinalStepWriteFaultIsAnalyzed(t *testing.T) {
	const steps = 20
	base, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	for faultSeed := int64(1); faultSeed <= 60; faultSeed++ {
		rep, err := Campaign(writeFaultScenario(t, base, faultSeed), steps)
		if err != nil {
			t.Fatal(err)
		}
		if rep.AnalysisJobs < steps {
			t.Errorf("fault seed %d: Campaign ran %d analysis jobs, want %d", faultSeed, rep.AnalysisJobs, steps)
		}
	}
	// Fault seeds whose final-step write faults.
	for _, faultSeed := range []int64{7, 12, 14} {
		s := writeFaultScenario(t, base, faultSeed)
		s.Timesteps = steps
		run, err := Run(s, CombinedCoScheduled)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(run.AnalysisJobStarts); got != steps {
			t.Errorf("fault seed %d: Run(co-scheduled) started %d analysis jobs, want %d", faultSeed, got, steps)
		}
		dir := t.TempDir()
		if _, err := ResumableCampaign(writeFaultScenario(t, base, faultSeed), steps, dir, 1); err != nil {
			t.Errorf("fault seed %d: persisted campaign: %v", faultSeed, err)
		}
		if _, err := os.Stat(filepath.Join(dir, centersRelPath(steps))); err != nil {
			t.Errorf("fault seed %d: final step's centers missing: %v", faultSeed, err)
		}
	}
}

// Run's co-scheduled variant and Campaign drive one engine: with the post
// queue wait that Campaign omits set to zero and no faults, the two give
// the same wall clock and the same analysis job starts.
func TestRunCoScheduledMatchesCampaign(t *testing.T) {
	base, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5, 20} {
		s := *base
		s.PostQueueWait = 0
		s.Timesteps = n
		run, err := Run(&s, CombinedCoScheduled)
		if err != nil {
			t.Fatal(err)
		}
		camp, err := Campaign(&s, n)
		if err != nil {
			t.Fatal(err)
		}
		if run.WallClock != camp.TotalWallClock {
			t.Errorf("n=%d: Run wall clock %v, Campaign %v", n, run.WallClock, camp.TotalWallClock)
		}
		// CampaignReport folds the job starts into OverlapFraction; read them
		// off the campaign's engine.
		e, err := newCampaignEngine(&s, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.run(1, n, 0); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(run.AnalysisJobStarts, e.jobStarts) {
			t.Errorf("n=%d: analysis job starts differ:\n%v\n%v", n, run.AnalysisJobStarts, e.jobStarts)
		}
	}
}

// A campaign's cost is linear in its length: nothing the engine does per
// listener poll or per watchdog check may grow with the files already
// landed or the jobs already done. Counted in heap allocations, which do
// not read a clock: 500 steps allocate at most 5.5x what 100 steps do, bare
// and supervised (the scan-and-sort listener: 6.1x and 5.9x).
func TestCampaignAllocationsScaleLinearly(t *testing.T) {
	bare, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	bare.PostQueueWait = 0
	supervised := *bare
	pol := supervise.DefaultPolicy()
	supervised.Supervise = &pol
	mallocs := func(s *Scenario, steps int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Campaign(s, steps); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	for _, tc := range []struct {
		name string
		s    *Scenario
	}{{"bare", bare}, {"supervised", &supervised}} {
		short, long := mallocs(tc.s, 100), mallocs(tc.s, 500)
		t.Logf("%s: %.0f objects at 100 steps, %.0f at 500 (%.2fx)", tc.name, short, long, long/short)
		if long > 5.5*short {
			t.Errorf("%s: 500 steps allocate %.0f objects, %.1fx the %.0f of 100 steps; want <= 5.5x", tc.name, long, long/short, short)
		}
	}
}
