package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

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

// within runs f in a goroutine and fails the test when it has not returned
// after 30 s of wall time, so an engine that spins is a failure here and
// now, not the package's ten-minute timeout. f must not call t.Fatal.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: still running after 30 s", what)
	}
}

// Bench open finding 5: a stalled attempt's heartbeat is frozen at `last`,
// and the watchdog that tested now-last >= window but re-armed at
// last+window could, by rounding, find the first false while the second
// equals now — re-arming itself at the current instant without end
// (scenario seed 1, fault seed 10). The weather is bench's recoverProfile
// with the stalls it had to zero switched back on.
func TestStalledCampaignTerminates(t *testing.T) {
	const steps = 20
	base, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	stalled := func(faultSeed int64) *Scenario {
		s := *base
		s.PostQueueWait = 0
		s.Faults = &fault.Profile{
			Seed:            faultSeed,
			JobFailureProb:  0.25,
			ListenerOutages: []fault.Window{{Start: 600, End: 1200}},
			NodeDrains:      []fault.Drain{{Window: fault.Window{Start: 400, End: 900}, Nodes: 2}},

			JobSlowdownProb:    0.25,
			JobStallProb:       0.2,
			InSituSlowdownProb: 0.3,
			SubmitFailProb:     0.15,
			TransitDelayProb:   0.2,

			BitRotProb: 0.5,
			Crashes: []fault.Crash{
				{AtTime: s.StepInterval * steps / 2},
				{AtStep: 3 * steps / 4},
			},
		}
		s.Scrub = &ScrubPolicy{}
		return &s
	}
	for faultSeed := int64(1); faultSeed <= 32; faultSeed++ {
		within(t, fmt.Sprintf("Campaign, fault seed %d", faultSeed), func() {
			if _, err := Campaign(stalled(faultSeed), steps); err != nil {
				t.Errorf("fault seed %d: %v", faultSeed, err)
			}
		})
	}
	for _, faultSeed := range []int64{3, 10} {
		dir := t.TempDir()
		err := ErrCampaignCrashed
		for gen := 0; gen < 4 && errors.Is(err, ErrCampaignCrashed); gen++ {
			within(t, fmt.Sprintf("ResumableCampaign, fault seed %d, generation %d", faultSeed, gen), func() {
				_, err = ResumableCampaign(stalled(faultSeed), steps, dir, 1)
			})
		}
		if err != nil {
			t.Errorf("fault seed %d: persisted campaign after 4 generations: %v", faultSeed, err)
		}
	}
}

// ROADMAP 2(b), first property: supervision that finds nothing to do
// changes nothing. A supervised fault-free run's report equals the bare
// one in every field but the decision log — the wall clock included, which
// is the clock when the last analysis landed, not when the last watchdog
// or deadline event of a finished job would have fired.
func TestSupervisedFaultFreeMatchesBare(t *testing.T) {
	pol := supervise.DefaultPolicy()
	rng := rand.New(rand.NewSource(19))
	for draw := 0; draw < 24; draw++ {
		seed, steps := int64(1+rng.Intn(3)), 1+rng.Intn(100)
		bare, err := DownscaledScenario(seed)
		if err != nil {
			t.Fatal(err)
		}
		bare.Timesteps = steps
		supervised := *bare
		supervised.Supervise = &pol

		want, err := Campaign(bare, steps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Campaign(&supervised, steps)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Decisions) == 0 {
			t.Errorf("seed %d, %d steps: supervised campaign recorded no decisions", seed, steps)
		}
		got.Decisions = nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d, %d steps: supervised campaign report differs from bare:\n  %+v\n  %+v", seed, steps, *got, *want)
		}
		for _, kind := range Kinds() {
			want, err := Run(bare, kind)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(&supervised, kind)
			if err != nil {
				t.Fatal(err)
			}
			if got.WallClock != want.WallClock {
				t.Errorf("seed %d, %d steps, %s: supervised wall clock %v, bare %v", seed, steps, kind, got.WallClock, want.WallClock)
			}
		}
	}
}

// A kill scheduled after all work is done kills nothing: the crash is live
// events pending at the kill time, and a finished supervised campaign has
// none — the timers of its finished jobs do not count.
func TestLateCrashAfterAllWorkCompletes(t *testing.T) {
	const steps = 8
	s, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	s.PostQueueWait = 0
	bare, err := Campaign(s, steps)
	if err != nil {
		t.Fatal(err)
	}
	pol := supervise.DefaultPolicy()
	s.Supervise = &pol
	s.Faults = &fault.Profile{Crashes: []fault.Crash{{AtTime: bare.TotalWallClock + 1000}}}
	dir := t.TempDir()
	rep, err := ResumableCampaign(s, steps, dir, 1)
	if err != nil {
		t.Fatalf("crash after the last analysis landed: %v", err)
	}
	if rep.AnalysisJobs != steps || rep.Resume.Generation != 0 {
		t.Errorf("%d analysis jobs in generation %d, want %d in generation 0", rep.AnalysisJobs, rep.Resume.Generation, steps)
	}
	if _, err := os.Stat(filepath.Join(dir, "catalog.txt")); err != nil {
		t.Errorf("merged catalog missing: %v", err)
	}
}
