// Command workflow-sim regenerates every table and figure of the paper's
// evaluation from the calibrated platform model (see DESIGN.md §4 and
// EXPERIMENTS.md for paper-vs-model numbers):
//
//	workflow-sim -table 1       data hierarchy sizes (Table 1)
//	workflow-sim -table 2       per-slice Find/Center node times (Table 2)
//	workflow-sim -table 3       workflow comparison summary (Table 3)
//	workflow-sim -table 4       detailed phase breakdown (Table 4)
//	workflow-sim -figure 3      halo mass function with the 300k split
//	workflow-sim -figure 4      projected per-node center-time histogram
//	workflow-sim -qcontinuum    the §4.1 Q Continuum case study
//	workflow-sim -subhalo       the §4.2 subhalo imbalance
//	workflow-sim -autosplit     the §4.1 automated split rule
//	workflow-sim -coschedule N  co-scheduling over N timesteps (wall-clock overlap)
//	workflow-sim -campaign N    full co-scheduled campaign with pile-up statistics
//	workflow-sim -machines      §4.2 Titan/Rhea/Moonlight analysis-machine choice
//	workflow-sim -resilience    workflow comparison under injected failures
//	workflow-sim -all           everything above
//
// With -out DIR, -campaign persists its products (Level 2 files, center
// catalogs, merged catalog) under DIR behind a crash-consistent journal;
// -resume DIR continues such a campaign after a crash, and -crash-time
// injects a process kill to exercise exactly that path:
//
//	workflow-sim -campaign 20 -out run/ -crash-time 9000
//	workflow-sim -resume run/
//
// With -gray, gray failures (25% job slowdowns, 20% mid-run stalls, 30%
// in-situ slowdowns, 15% submit refusals) are injected and recovered by
// heartbeat/deadline/straggler supervision with hedged re-execution;
// -step-budget arms adaptive in-situ→off-line degradation and -decisions
// prints the supervision decision log:
//
//	workflow-sim -resilience -gray
//	workflow-sim -campaign 20 -gray -step-budget 900 -decisions
//
// With -bitrot P, a persisted campaign's committed products silently rot
// at rest (seeded, length-preserving bit flips); -scrub SEC co-schedules
// background scrub jobs every SEC virtual seconds that re-verify products
// against the content-addressed lineage ledger, quarantine mismatches,
// and repair them by re-deriving only the producing step. The integrity
// report and (with -decisions) the scrub decision log are printed:
//
//	workflow-sim -campaign 20 -out run/ -bitrot 0.5 -scrub 300 -decisions
//
// With -cost, the three headline workflow variants rerun instrumented and
// a per-phase cost report prices each span category in node-hours under
// the Titan charge policy (1 node-hour = 30 core-hours), reproducing the
// paper's in-situ vs off-line vs co-scheduled accounting. -trace FILE
// exports the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto), -spantree FILE writes a plain-text span tree, and -metrics
// prints every observer's metrics registry; combined with -campaign, the
// artifacts cover the live campaign (campaign → step → job spans). All
// artifacts are byte-identical across runs for a fixed seed:
//
//	workflow-sim -cost -trace trace.json -spantree spans.txt -metrics
//	workflow-sim -campaign 20 -trace campaign.json -cost
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("workflow-sim: ")
	var (
		table      = flag.Int("table", 0, "regenerate Table 1-4")
		figure     = flag.Int("figure", 0, "regenerate Figure 3 or 4")
		qcontinuum = flag.Bool("qcontinuum", false, "run the Q Continuum case study")
		subhalo    = flag.Bool("subhalo", false, "run the subhalo imbalance study")
		autosplit  = flag.Bool("autosplit", false, "run the automated split rule")
		coschedule = flag.Int("coschedule", 0, "co-scheduling demo over N timesteps")
		campaign   = flag.Int("campaign", 0, "full co-scheduled campaign over N snapshots (pile-up statistics)")
		machines   = flag.Bool("machines", false, "compare analysis machines for the post job (§4.2 Titan/Rhea/Moonlight trade-off)")
		resilience = flag.Bool("resilience", false, "compare workflow degradation under injected failures (job death, node drains, write faults, listener outages)")
		faultSeed  = flag.Int64("fault-seed", 1, "fault injector seed (with -resilience/-gray)")
		gray       = flag.Bool("gray", false, "add gray failures (job slowdowns, mid-run stalls, in-situ slowdowns, submit refusals) to -resilience and -campaign runs; supervision recovers them")
		stepBudget = flag.Float64("step-budget", 0, "with -gray: in-situ seconds budget per step; over-budget steps spill their center work to the off-line path")
		decisions  = flag.Bool("decisions", false, "with -campaign/-resume: print the supervision decision log (under -gray) or the scrub decision log (under -bitrot/-scrub)")
		all        = flag.Bool("all", false, "run everything")
		seed       = flag.Int64("seed", 1, "population synthesis seed")
		outDir     = flag.String("out", "", "with -campaign: persist products under this directory behind a crash-consistent journal (the campaign becomes resumable)")
		resumeDir  = flag.String("resume", "", "resume a persisted campaign from its directory (parameters are read from the journal)")
		crashTime  = flag.Float64("crash-time", 0, "with -out/-resume: kill the engine at this virtual time (exercise crash recovery)")
		bitrot     = flag.Float64("bitrot", 0, "with -out/-resume: per-product at-rest bit-rot probability (seeded, length-preserving flips; detected and repaired via the lineage ledger)")
		scrub      = flag.Float64("scrub", 0, "with -out/-resume: co-schedule background scrub jobs every SEC virtual seconds re-verifying committed products")
		cost       = flag.Bool("cost", false, "per-phase cost accounting for the three headline workflows under the Titan charge policy; with -campaign, also price the campaign's job spans")
		tracePath  = flag.String("trace", "", "write Chrome trace-event JSON of all instrumented runs to FILE (deterministic bytes per seed)")
		spanPath   = flag.String("spantree", "", "write a plain-text span tree of all instrumented runs to FILE")
		metrics    = flag.Bool("metrics", false, "print every instrumented run's metrics registry (deterministic encode order)")
	)
	flag.Parse()
	// Reject a flag the selected run would never read: it would change
	// nothing, silently.
	persisted := *outDir != "" || *resumeDir != ""
	campaignRun := *campaign > 0 || *all || *resumeDir != ""
	for _, c := range []struct {
		ignored bool
		msg     string
	}{
		{*gray && persisted, "-gray needs an in-memory run: a persisted campaign (-out/-resume) has no gray weather"},
		{*stepBudget != 0 && persisted, "-step-budget needs an in-memory campaign: a persisted one (-out/-resume) has no step budget"},
		{*stepBudget != 0 && !*gray, "-step-budget needs -gray"},
		{*crashTime != 0 && !persisted, "-crash-time needs -out or -resume"},
		{*bitrot != 0 && !persisted, "-bitrot needs -out or -resume"},
		{*scrub != 0 && !persisted, "-scrub needs -out or -resume"},
		{*decisions && !(campaignRun && (*gray || *bitrot != 0 || *scrub != 0)),
			"-decisions needs a campaign (-campaign, -all or -resume) under -gray, -bitrot or -scrub"},
	} {
		if c.ignored {
			fmt.Fprintln(os.Stderr, "workflow-sim: "+c.msg)
			os.Exit(2)
		}
	}
	// The gray weather: nothing in it kills a job outright — every
	// disruption is a slowdown, stall or refusal that only supervision can
	// see.
	var grayP *fault.Profile
	if *gray {
		grayP = &fault.Profile{Seed: *faultSeed, JobSlowdownProb: 0.25, JobStallProb: 0.2,
			InSituSlowdownProb: 0.3, SubmitFailProb: 0.15}
	}
	// Observability: -cost/-trace/-spantree/-metrics instrument the runs
	// they accompany. A campaign-mode invocation gets a live observer
	// (campaign → step → job spans); -cost additionally reruns the three
	// headline workflows instrumented. Observers accumulate here and are
	// exported together at the end.
	observe := *cost || *tracePath != "" || *spanPath != "" || *metrics
	var observers []*obs.Observer
	var campObs *obs.Observer
	if observe && (*campaign > 0 || *resumeDir != "" || *all) {
		campObs = obs.New("campaign", nil)
	}
	ran := false
	run := func(enabled bool, fn func(int64) error) {
		if !enabled && !*all {
			return
		}
		ran = true
		if err := fn(*seed); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	run(*table == 1, table1)
	run(*table == 2, table2)
	run(*table == 3, table3)
	run(*table == 4, table4)
	run(*figure == 3, figure3)
	run(*figure == 4, figure4)
	run(*qcontinuum, qContinuum)
	run(*subhalo, subhaloStudy)
	run(*autosplit, autoSplit)
	run(*machines, machineComparison)
	run(*resilience, func(seed int64) error { return resilienceStudy(seed, *faultSeed, grayP) })
	if *coschedule > 0 || *all {
		ran = true
		n := *coschedule
		if n <= 0 {
			n = 5
		}
		if err := coScheduleDemo(*seed, n); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *cost {
		ran = true
		costObs, err := costStudy(*seed)
		if err != nil {
			log.Fatal(err)
		}
		observers = append(observers, costObs...)
	}
	if *resumeDir != "" {
		ran = true
		if err := persistedCampaign(*seed, 0, *resumeDir, *crashTime, *faultSeed, *bitrot, *scrub, *decisions, campObs); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *campaign > 0 || *all {
		ran = true
		n := *campaign
		if n <= 0 {
			n = 100
		}
		var err error
		if *outDir != "" {
			err = persistedCampaign(*seed, n, *outDir, *crashTime, *faultSeed, *bitrot, *scrub, *decisions, campObs)
		} else {
			err = campaignStudy(*seed, n, grayP, *stepBudget, *decisions, campObs)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if campObs != nil {
		observers = append(observers, campObs)
		if *cost {
			rep := obs.Cost(campObs)
			if err := rep.WriteTable(os.Stdout); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	}
	if len(observers) > 0 {
		if err := dumpArtifacts(observers, *tracePath, *spanPath, *metrics); err != nil {
			log.Fatal(err)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func machineComparison(seed int64) error {
	s, err := core.DownscaledScenario(seed)
	if err != nil {
		return err
	}
	choices, err := core.CompareAnalysisMachines(s, []platform.Machine{
		platform.Titan(), platform.Rhea(), platform.Moonlight(),
	})
	if err != nil {
		return err
	}
	fmt.Println("Analysis-machine choice for the combined workflow's post job (§4.2):")
	fmt.Printf("  %-10s %6s %14s %12s %10s %s\n", "machine", "GPUs", "analysis [s]", "queue [s]", "core hrs", "small-job cap")
	for _, c := range choices {
		gpus := "no"
		if c.Machine.HasGPU {
			gpus = "yes"
		}
		cap := "-"
		if c.SubjectToSmallJobPolicy {
			cap = fmt.Sprintf("max %d jobs < %d nodes", c.Machine.SmallJobLimit, c.Machine.SmallJobNodes)
		}
		fmt.Printf("  %-10s %6s %14.0f %12.0f %10.1f %s\n",
			c.Machine.Name, gpus, c.PostAnalysisSeconds, c.QueueWaitSeconds, c.CoreHours, cap)
	}
	return nil
}

// defaultFaultProfile is the facility-weather profile the resilience
// comparison runs under: occasional job death, flaky Lustre writes with
// rare silent truncation, a listener outage early in the run, and a node
// drain on the analysis partition.
func defaultFaultProfile(faultSeed int64) fault.Profile {
	return fault.Profile{
		Seed:              faultSeed,
		JobFailureProb:    0.25,
		WriteFailProb:     0.10,
		WriteTruncateProb: 0.05,
		ListenerOutages:   []fault.Window{{Start: 600, End: 1200}},
		NodeDrains:        []fault.Drain{{Window: fault.Window{Start: 400, End: 900}, Nodes: 2}},
	}
}

func resilienceStudy(seed, faultSeed int64, grayP *fault.Profile) error {
	s, err := core.DownscaledScenario(seed)
	if err != nil {
		return err
	}
	s.Timesteps = 5
	s.PostQueueWait = 0
	p := defaultFaultProfile(faultSeed)
	if grayP != nil {
		// Layer gray weather on top of the fail-stop mix: the supervised
		// run faces both at once.
		p.JobSlowdownProb = grayP.JobSlowdownProb
		p.JobStallProb = grayP.JobStallProb
		p.InSituSlowdownProb = grayP.InSituSlowdownProb
		p.SubmitFailProb = grayP.SubmitFailProb
	}
	rows, err := core.ResilienceStudy(s, p)
	if err != nil {
		return err
	}
	fmt.Printf("Resilience under injected failures (fault seed %d; %.0f%% job death, %.0f%% write fail, %.0f%% truncation,\n"+
		"listener outage %.0f-%.0f s, %d nodes drained %.0f-%.0f s; retries: %d attempts, %.0f s backoff x2 +%.0f%% jitter):\n",
		p.Seed, 100*p.JobFailureProb, 100*p.WriteFailProb, 100*p.WriteTruncateProb,
		p.ListenerOutages[0].Start, p.ListenerOutages[0].End,
		p.NodeDrains[0].Nodes, p.NodeDrains[0].Start, p.NodeDrains[0].End,
		sched.RetryMaxAttempts, sched.RetryBackoff, 100*sched.RetryJitterFrac)
	if grayP != nil {
		fmt.Printf("Gray weather on top (%.0f%% slowdown, %.0f%% stall, %.0f%% in-situ slowdown, %.0f%% submit refusal);\n"+
			"supervision: heartbeats, deadlines, hedged re-execution, adaptive degradation:\n",
			100*p.JobSlowdownProb, 100*p.JobStallProb, 100*p.InSituSlowdownProb,
			100*p.SubmitFailProb)
	}
	fmt.Print(core.FormatResilience(rows))
	return nil
}

// persistedCampaign runs (or resumes) a crash-consistent campaign rooted
// at dir. steps == 0 means resume: the horizon and the seeds (fault seed
// included, so a flag-less -resume runs under the profile seed the
// journal pins) are read back from the journal's meta record. A
// crash-time kill is armed for the *current* generation, so
// repeated invocations with the same flag crash once and then
// complete. bitrot > 0 injects seeded at-rest
// corruption into committed products; scrub > 0 co-schedules background
// scrub jobs at that interval.
func persistedCampaign(seed int64, steps int, dir string, crashTime float64, faultSeed int64, bitrot, scrub float64, decisions bool, o *obs.Observer) error {
	// Peek at the journal for the generation count and, on resume, the
	// pinned campaign parameters.
	gen := 0
	pinnedFaults := false // the journal pins a fault seed: resume under the same profile seed
	if _, err := os.Stat(filepath.Join(dir, "journal.wal")); err == nil {
		j, records, err := ckpt.Open(filepath.Join(dir, "journal.wal"))
		if err != nil {
			return err
		}
		if err := j.Close(); err != nil {
			return err
		}
		m := ckpt.Replay(records)
		gen = m.Generation
		if m.Meta != nil {
			seed, steps, faultSeed = m.Meta.Seed, m.Meta.Timesteps, m.Meta.FaultSeed
			pinnedFaults = faultSeed != 0
		}
	}
	if steps <= 0 {
		return fmt.Errorf("no campaign journal to resume in %s", dir)
	}
	s, err := core.DownscaledScenario(seed)
	if err != nil {
		return err
	}
	s.PostQueueWait = 0
	if crashTime > 0 || bitrot > 0 || pinnedFaults {
		p := &fault.Profile{Seed: faultSeed, BitRotProb: bitrot}
		if crashTime > 0 {
			p.Crashes = make([]fault.Crash, gen+1)
			p.Crashes[gen] = fault.Crash{AtTime: crashTime}
		}
		if err := p.Validate(); err != nil {
			return err
		}
		s.Faults = p
	}
	if scrub > 0 {
		s.Scrub = &core.ScrubPolicy{Interval: scrub}
	}
	s.Obs = o
	rep, err := core.ResumableCampaign(s, steps, dir, seed)
	if errors.Is(err, core.ErrCampaignCrashed) {
		fmt.Printf("Campaign crashed (generation %d); the journal under %s holds all committed work.\n", gen, dir)
		fmt.Printf("Continue with: workflow-sim -resume %s\n", dir)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("Persisted co-scheduled campaign over %d snapshots in %s:\n", rep.Timesteps, dir)
	fmt.Printf("  generation %d: %d steps and %d analyses skipped (journaled), %d torn files reconciled (%d gio blocks salvaged)\n",
		rep.Resume.Generation, rep.Resume.StepsSkipped, rep.Resume.PostsSkipped,
		rep.Resume.TornFiles, rep.Resume.SalvagedBlocks)
	fmt.Printf("  simulation finished:   %.0f s\n", rep.SimWallClock)
	fmt.Printf("  all analysis done:     %.0f s\n", rep.TotalWallClock)
	fmt.Printf("  products: %d Level 2 files, %d center catalogs, merged catalog.txt\n",
		rep.Timesteps, rep.Timesteps)
	if bitrot > 0 || scrub > 0 {
		in := rep.Integrity
		fmt.Printf("  integrity: %d verified, %d corrupt, %d quarantined, %d repaired, %d escalated (%d scrub jobs)\n",
			in.Verified, in.Corruptions, in.Quarantined, in.Repaired, in.Escalated, in.ScrubJobs)
		if decisions {
			fmt.Println("  scrub decision log:")
			for _, d := range rep.ScrubDecisions {
				fmt.Printf("    %s\n", d.String())
			}
		}
	}
	return nil
}

func campaignStudy(seed int64, steps int, grayP *fault.Profile, stepBudget float64, decisions bool, o *obs.Observer) error {
	s, err := core.DownscaledScenario(seed)
	if err != nil {
		return err
	}
	s.PostQueueWait = 0
	s.Obs = o
	if grayP != nil {
		s.Faults = grayP
		if stepBudget > 0 {
			s.StepBudget = stepBudget
		}
	}
	rep, err := core.Campaign(s, steps)
	if err != nil {
		return err
	}
	fmt.Printf("Co-scheduled campaign over %d snapshots (§3.2 pile-up behaviour):\n", rep.Timesteps)
	fmt.Printf("  simulation finished:   %.0f s\n", rep.SimWallClock)
	fmt.Printf("  all analysis done:     %.0f s (trailing %.0f s after sim)\n", rep.TotalWallClock, rep.TrailingSeconds)
	fmt.Printf("  simple workflow would finish: %.0f s (co-scheduling saves %.0f%%)\n",
		rep.SimpleWallClock, 100*(1-rep.TotalWallClock/rep.SimpleWallClock))
	fmt.Printf("  analysis jobs: %d, %.0f%% overlapped the simulation, max pile-up %d\n",
		rep.AnalysisJobs, 100*rep.OverlapFraction, rep.MaxPileUp)
	if grayP != nil {
		res := rep.Resilience
		fmt.Printf("  gray weather: %d stalls, %d hedges (%d backup wins), %d submit refusals (%d breaker trips, %d skips)\n",
			res.Stalls, res.HedgesLaunched, res.HedgeWins, res.SubmitFaults, res.BreakerOpens, res.BreakerSkips)
		fmt.Printf("  degradation:  %d steps spilled off-line, %d lost jobs rescued, %.2f node-hours lost to stragglers\n",
			res.DegradedSteps, res.RescuedSteps, res.StragglerNodeHours)
		if decisions {
			fmt.Println("  supervision decision log:")
			fmt.Print(core.FormatDecisions(rep.Decisions))
		}
	}
	return nil
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1e12:
		return fmt.Sprintf("%.1f TB", b/1e12)
	case b >= 1e9:
		return fmt.Sprintf("%.1f GB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.1f MB", b/1e6)
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}

func table1(seed int64) error {
	rows, err := core.Table1(seed)
	if err != nil {
		return err
	}
	fmt.Println("Table 1 — data hierarchy, last step only (paper: 40 GB/5 GB/43 MB and 20 TB/4 TB/10 GB):")
	for _, r := range rows {
		fmt.Printf("  %-8s Level 1 %-10s Level 2 %-10s Level 3 %s\n",
			r.Label, fmtBytes(r.Level1Bytes), fmtBytes(r.Level2Bytes), fmtBytes(r.Level3Bytes))
	}
	return nil
}

func table2(seed int64) error {
	rows, err := core.Table2(seed)
	if err != nil {
		return err
	}
	fmt.Println("Table 2 — per-slice node seconds (paper: find 352-2143; center 19-21,250):")
	fmt.Println("  slice     z   find-max  find-min  center-max  center-min")
	for _, r := range rows {
		fmt.Printf("  %5d %5.3f %10.0f %9.0f %11.0f %11.1f\n",
			r.Slice, r.Redshift, r.FindMax, r.FindMin, r.CenterMax, r.CenterMin)
	}
	return nil
}

func table3(seed int64) error {
	s, err := core.DownscaledScenario(seed)
	if err != nil {
		return err
	}
	fmt.Println("Table 3 — workflow comparison (paper core hours: 193 / 356 / 135 / same / n-a):")
	fmt.Printf("  %-30s %-8s %-8s %-15s %s\n", "method", "I/O", "redist.", "queueing", "core hrs")
	for _, k := range core.Kinds() {
		r, err := core.Run(s, k)
		if err != nil {
			return err
		}
		fmt.Printf("  %-30s %-8s %-8s %-15s %7.0f\n",
			r.Workflow, r.IOLevel, r.RedistLevel, r.Queueing, r.AnalysisCoreHours)
	}
	return nil
}

func table4(seed int64) error {
	s, err := core.DownscaledScenario(seed)
	if err != nil {
		return err
	}
	fmt.Println("Table 4 — detailed phases, seconds (paper rows: in-situ 772/722/0.3; off-line 779/0/5 then 5/435/892/0.3; combined 774/361/3 then 3/75/1075/0.2):")
	fmt.Printf("  %-30s | %8s %9s %6s | %7s %6s %7s %9s %6s | %8s\n",
		"workflow", "sim", "analysis", "write", "queue", "read", "redist", "analysis", "write", "wall")
	for _, k := range core.Kinds() {
		r, err := core.Run(s, k)
		if err != nil {
			return err
		}
		fmt.Printf("  %-30s | %8.0f %9.0f %6.1f | %7.0f %6.1f %7.1f %9.0f %6.2f | %8.0f\n",
			r.Workflow, r.SimSeconds, r.AnalysisSeconds, r.SimWriteSeconds,
			r.PostQueueWait, r.ReadSeconds, r.RedistributeSeconds,
			r.PostAnalysisSeconds, r.PostWriteSeconds, r.WallClock)
	}
	return nil
}

func figure3(seed int64) error {
	bins, total, off, err := core.Figure3(seed)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 3 — halo mass function at z=0 (paper: 167,686,789 halos, 84,719 off-loaded)\n")
	fmt.Printf("  synthesized: %.0f halos, %.0f off-loaded (> 300k particles)\n", total, off)
	fmt.Println("  particles       mass [Msun/h]   count      (o = off-loaded)")
	for _, b := range bins {
		mark := " "
		if b.Offloaded {
			mark = "o"
		}
		fmt.Printf("  %12.3g  %14.3g  %10.3g %s\n", b.Particles, b.MassMsun, b.Count, mark)
	}
	return nil
}

func figure4(seed int64) error {
	h, err := core.Figure4(seed)
	if err != nil {
		return err
	}
	fmt.Println("Figure 4 — projected per-node center-finding times for off-loaded halos")
	fmt.Println("  (16,384 nodes, 1000 s bins, log-scaled bars; paper's tail reaches 21,250 s)")
	fmt.Print(h.Render(40, true))
	return nil
}

func qContinuum(seed int64) error {
	r, err := core.QContinuumStudy(seed)
	if err != nil {
		return err
	}
	fmt.Println(r)
	return nil
}

func subhaloStudy(seed int64) error {
	slow, fast, err := core.SubhaloImbalance(seed)
	if err != nil {
		return err
	}
	fmt.Printf("Subhalo imbalance (§4.2; paper: 8172 s slowest, 1457 s fastest, >5x):\n")
	fmt.Printf("  slowest node %.0f s, fastest %.0f s, imbalance %.1fx\n", slow, fast, slow/fast)
	return nil
}

func autoSplit(seed int64) error {
	s, err := core.QContinuumScenario(seed)
	if err != nil {
		return err
	}
	d, err := core.AutoSplit(s)
	if err != nil {
		return err
	}
	fmt.Println("Automated split rule (§4.1):")
	fmt.Printf("  t_io              = %.0f s\n", d.TIOSeconds)
	fmt.Printf("  m_max_io          = %d particles\n", d.MaxInSituSize)
	fmt.Printf("  m_max_sim         = %d particles\n", d.LargestSimSize)
	fmt.Printf("  off-load needed   = %v (threshold %d)\n", d.OffloadNeeded, d.Threshold)
	fmt.Printf("  co-schedule ranks = %d  (T=%.0f s, t_max=%.0f s)\n",
		d.CoScheduleRanks, d.TotalOffloadSeconds, d.LargestHaloSeconds)
	return nil
}

func coScheduleDemo(seed int64, steps int) error {
	s, err := core.DownscaledScenario(seed)
	if err != nil {
		return err
	}
	s.Timesteps = steps
	s.PostQueueWait = 0
	simple, err := core.Run(s, core.CombinedSimple)
	if err != nil {
		return err
	}
	co, err := core.Run(s, core.CombinedCoScheduled)
	if err != nil {
		return err
	}
	fmt.Printf("Co-scheduling over %d timesteps:\n", steps)
	fmt.Printf("  simple (post job after sim):  wall %.0f s\n", simple.WallClock)
	fmt.Printf("  co-scheduled (listener):      wall %.0f s (%.0f%% of simple)\n",
		co.WallClock, 100*co.WallClock/simple.WallClock)
	fmt.Printf("  analysis job starts: ")
	for _, t := range co.AnalysisJobStarts {
		fmt.Printf("%.0f ", t)
	}
	fmt.Println()
	return nil
}
