package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// sizing fixes the problem sizes. full is what BENCHMARK.json measures;
// quick is the reduced sizing bench_test.go drives under `go test ./...`.
type sizing struct {
	name string
	// quickSetup sets every workload up once instead of workload.setups
	// times.
	quickSetup bool
	// modelTrim drops the subhalo-imbalance study from the model_tables
	// op, halving it to one population synthesis.
	modelTrim bool
	// campaignSeeds scenarios are built for campaign_clean and cycled.
	campaignSeeds int
	cleanSteps    int // campaign_clean horizon
	recoverSteps  int // campaign_recover horizon
	// pipeline_insitu: particles per dimension, box [Mpc/h], PM steps,
	// analysis cadence.
	pipeNP, pipeSteps, pipeEvery int
	pipeBox                      float64
	// analysis_offline: snapshot size and the PM steps that evolve it to
	// z = 0 in set-up; subhalo+SO run on the topHalos largest halos.
	offNP, offSteps, topHalos int
	offBox                    float64
}

var (
	// Both pipeline boxes keep the 1.25 Mpc/h inter-particle spacing of
	// ROADMAP's `hacc-sim -np 64 -box 80` shape, so halo masses match.
	fullSizing = sizing{
		name:          "full",
		campaignSeeds: 3, cleanSteps: 100, recoverSteps: 20,
		pipeNP: 32, pipeBox: 40, pipeSteps: 20, pipeEvery: 5,
		offNP: 64, offBox: 80, offSteps: 10, topHalos: 8,
	}
	quickSizing = sizing{
		name: "quick", quickSetup: true, modelTrim: true,
		campaignSeeds: 1, cleanSteps: 10, recoverSteps: 10,
		pipeNP: 32, pipeBox: 40, pipeSteps: 8, pipeEvery: 4,
		offNP: 32, offBox: 40, offSteps: 8, topHalos: 4,
	}
)

// env is what a workload or probe sees of the invocation.
type env struct {
	seed    int64
	size    sizing
	workdir string // fresh directory owned by this process, removed at exit
	// ranks is the mpi rank / dparallel worker count: min(2, GOMAXPROCS),
	// never more threads than the load shape allows.
	ranks int
}

// workload is one named set of inputs. setup generates them from e.seed,
// computes the reference outputs and returns the instance whose ops are
// timed.
type workload struct {
	name string
	why  string
	// setups is how many times one run sets the workload up from scratch,
	// each time for an equal part of the timed ops; setup_s is their floor
	// (the fastest, at these counts). Five where one set-up is under a
	// second and a burst of interference can swallow it whole.
	setups int
	setup  func(e *env) (instance, error)
}

// instance runs checked ops. op runs operation i under root (the op's
// trace span; nil when untraced) and returns check, which the harness calls
// after the op's clock has stopped: it compares the op's output with the
// reference and returns the deviation in percent (ref_dev_pct). An error
// from either is a failed op. inputs is how many distinct inputs the
// instance cycles through: op i runs on input i mod inputs.
type instance interface {
	inputs() int
	op(i int, root *ref) (check func() (devPct float64, err error), err error)
}

// finisher is an instance whose ops have a second half that waits on the
// disk (campaign_recover's persisted recovery). Timed between the ops, that
// half would put the device's fsync latency into op_ms_floor and its
// write-back into the ops that follow, so finish runs one such half per
// distinct input after the last timed op: off the wall and CPU clocks, but
// checked like any op (a failure fails the last op), and with what the
// disk cannot move — its heap allocations — counted.
type finisher interface {
	finish() (off offClock, devPct float64, err error)
}

// offClock is the allocation count of an instance's off-clock halves.
// Every op is charged the mean half, so allocs_per_op and alloc_mb_per_op
// cover the whole op.
type offClock struct {
	halves         int
	mallocs, bytes uint64
}

var workloads = []workload{
	{
		name:   "model_tables",
		why:    "planner session through core's study functions; cosmo sigma(R) integrals and population synthesis do over 95% of the work, DES/sched/kernels ~0 (bypass for every engine or kernel change)",
		setups: 3, setup: setupModelTables,
	},
	{
		name:   "campaign_clean",
		why:    "fault-free supervised+observed 100-step in-memory campaign; des+sched+fs+supervise+obs do all the work, cosmo none (it is in setup_s)",
		setups: 3, setup: setupCampaignClean,
	},
	{
		name:   "campaign_recover",
		why:    "20-step campaign under 4 fault weathers per op, timed in memory (retry, hedge, rescue arms); its persisted crash/bit-rot/resume half is fsync-bound: byte-checked, gated by allocations, not by time",
		setups: 5, setup: setupCampaignRecover,
	},
	{
		name:   "pipeline_insitu",
		why:    "real combined workflow: IC, PM steps with in-situ power spectrum + halo finder, Level 2 write/read, off-line centers, merge; the only workload where nbody/fft/grid can show",
		setups: 5, setup: setupPipelineInsitu,
	},
	{
		name:   "analysis_offline",
		why:    "off-line path on a stored z=0 snapshot: Level 1 read, 2-rank redistribute + overload FOF + all centers, subhalo and SO on the largest halos; no PM steps, so nbody/fft changes must read no change",
		setups: 3, setup: setupAnalysisOffline,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opStats accumulates one timed loop.
type opStats struct {
	ms, cpuMs      []float64 // per-op wall time, and CPU time over all threads
	input          []int     // which of the instance's inputs each op ran on
	mallocs, bytes uint64    // runtime.MemStats deltas over the timed parts only
	off            offClock  // and over the finisher's off-clock halves
	failed         int
	devPct         float64 // largest deviation any op reported
	firstErr       error
}

func (s *opStats) attempted() int { return len(s.ms) }

// timeOps runs ops startOp, startOp+1, ... until stop says so, and at
// least one. Only the op itself is inside the clock and the allocation
// counters; the output check runs after both have stopped.
func timeOps(w workload, inst instance, tr *tracer, startOp int, stop stopFunc) *opStats {
	st := &opStats{}
	var before, after runtime.MemStats
	loopStart := time.Now()
	for n := 0; n == 0 || !stop(n, time.Since(loopStart)); n++ {
		i := startOp + n
		runtime.ReadMemStats(&before)
		root := tr.beginOp(w.name, i)
		c0, t0 := processCPU(), time.Now()
		check, err := inst.op(i, root)
		d, c := time.Since(t0), processCPU()-c0
		root.end()
		runtime.ReadMemStats(&after)
		st.ms = append(st.ms, float64(d)/float64(time.Millisecond))
		st.cpuMs = append(st.cpuMs, float64(c)/float64(time.Millisecond))
		st.input = append(st.input, mod(i, inst.inputs()))
		st.mallocs += after.Mallocs - before.Mallocs
		st.bytes += after.TotalAlloc - before.TotalAlloc
		if err == nil {
			var dev float64
			dev, err = check()
			if dev > st.devPct {
				st.devPct = dev
			}
		}
		if err != nil {
			st.fail(fmt.Errorf("%s op %d: %w", w.name, i, err))
		}
	}
	return st
}

// add appends a later loop's ops to s.
func (s *opStats) add(t *opStats) {
	s.ms, s.cpuMs, s.input = append(s.ms, t.ms...), append(s.cpuMs, t.cpuMs...), append(s.input, t.input...)
	s.mallocs, s.bytes = s.mallocs+t.mallocs, s.bytes+t.bytes
	s.failed += t.failed
	if t.devPct > s.devPct {
		s.devPct = t.devPct
	}
	if s.firstErr == nil {
		s.firstErr = t.firstErr
	}
}

func (s *opStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// finishOps runs the instance's off-clock halves, if it has any, as the
// tail of the last op's check: a failure there fails that op.
func finishOps(w workload, inst instance, st *opStats) {
	f, ok := inst.(finisher)
	if !ok {
		return
	}
	off, dev, err := f.finish()
	st.off = off
	if dev > st.devPct {
		st.devPct = dev
	}
	if err != nil && st.failed < st.attempted() {
		st.fail(fmt.Errorf("%s off-clock half: %w", w.name, err))
	}
}

// stopFunc ends a timed loop: it is asked before each op but the first,
// with the ops done and the wall time elapsed so far.
type stopFunc func(done int, elapsed time.Duration) bool

// forSeconds stops a loop once d has elapsed.
func forSeconds(d time.Duration) stopFunc {
	return func(_ int, elapsed time.Duration) bool { return elapsed >= d }
}

// forOps stops a loop after n ops.
func forOps(n int) stopFunc {
	return func(done int, _ time.Duration) bool { return done >= n }
}

// budget sizes one workload's measurement: so long, or (ops > 0) exactly
// so many ops.
type budget struct {
	d   time.Duration
	ops int
}

// part is the stop of the r-th of n equal parts of the budget.
func (b budget) part(r, n int) stopFunc {
	if b.ops > 0 {
		return forOps(b.ops*(r+1)/n - b.ops*r/n)
	}
	return forSeconds(b.d / time.Duration(n))
}

// setUp builds a fresh instance and runs the one discarded warm-up op
// (op -1) through its output check, so lazy initialisation and heap growth
// land in set-up time, not in the first timed op.
func setUp(w workload, e *env) (instance, time.Duration, error) {
	t0 := time.Now()
	inst, err := w.setup(e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	warm := timeOps(w, inst, nil, -1, forOps(1))
	if warm.firstErr != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	return inst, time.Since(t0), nil
}

// untraced is the result of one end-to-end measurement of one workload.
type untraced struct {
	workload string
	setups   []float64 // seconds, one per set-up repetition
	ops      *opStats
}

// measure times ops with tracing off for the budget b, in w.setups equal
// parts, each on an instance set up from scratch: every set-up is one whose
// instance goes on to be used, and both the set-ups and the ops sample the
// whole of the run's window, not one end of it.
func measure(w workload, e *env, b budget) (*untraced, error) {
	u := &untraced{workload: w.name, ops: &opStats{}}
	reps := w.setups
	if e.size.quickSetup {
		reps = 1
	}
	var inst instance
	for r := 0; r < reps; r++ {
		var d time.Duration
		var err error
		if inst, d, err = setUp(w, e); err != nil {
			return nil, err
		}
		u.setups = append(u.setups, d.Seconds())
		runtime.GC()
		u.ops.add(timeOps(w, inst, nil, u.ops.attempted(), b.part(r, reps)))
	}
	finishOps(w, inst, u.ops)
	return u, nil
}

// metric is one named number with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd names the seven gated metrics, in print order, each with the
// share of the parent's median it may worsen by. BENCHMARK.json lists the
// same names, units, directions and bounds; bench_test.go checks that.
// exact marks the two that -verify-repeat holds to equality: at one seed
// they are computed, not measured.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
	exact              bool
}{
	{"setup_s", "s", "lower", 0.25, false},
	{"op_ms_floor", "ms", "lower", 0.25, false},
	{"op_cpu_ms_floor", "ms", "lower", 0.25, false},
	{"allocs_per_op", "allocs", "lower", 0.15, false},
	{"alloc_mb_per_op", "MB", "lower", 0.15, false},
	{"passed_frac", "ratio", "higher", 0.01, true},
	{"ref_agree_pct", "%", "higher", 0.20, true},
}

// floor is the op time with the machine's interference stripped: per
// distinct input, the fastest decile of that input's repeats (nearest
// rank, so the fastest repeat below 11 of them), averaged over the inputs
// so every kind of op the workload runs carries weight. Interference on a
// shared box only ever adds time — in bursts that move a run's median by
// tens of percent — so the low end of the repeats is what repeats.
func floor(ms []float64, input []int) float64 {
	groups := map[int][]float64{}
	for i, v := range ms {
		groups[input[i]] = append(groups[input[i]], v)
	}
	sum := 0.0
	for _, g := range groups {
		sort.Float64s(g)
		sum += g[(len(g)-1)/10]
	}
	return sum / float64(len(groups))
}

// metrics derives the seven end-to-end metrics. passed_frac and
// ref_agree_pct are the complements of the issue's failed_frac and
// ref_dev_pct: the driver's contract forbids a gated metric whose
// baseline is 0, and both of those are 0 when everything is right.
func (u *untraced) metrics() []metric {
	n := float64(u.ops.attempted())
	allocs, bytes := float64(u.ops.mallocs)/n, float64(u.ops.bytes)/n
	if off := u.ops.off; off.halves > 0 {
		allocs += float64(off.mallocs) / float64(off.halves)
		bytes += float64(off.bytes) / float64(off.halves)
	}
	values := map[string]float64{
		"setup_s":         floor(u.setups, make([]int, len(u.setups))),
		"op_ms_floor":     floor(u.ops.ms, u.ops.input),
		"op_cpu_ms_floor": floor(u.ops.cpuMs, u.ops.input),
		"allocs_per_op":   allocs,
		"alloc_mb_per_op": bytes / 1e6,
		"passed_frac":     1 - float64(u.ops.failed)/n,
		"ref_agree_pct":   100 - u.ops.devPct,
	}
	out := make([]metric, len(endToEnd))
	for i, m := range endToEnd {
		out[i] = metric{m.name, values[m.name], m.unit}
	}
	return out
}

// info returns the lines printed beside the gated metrics but not gated:
// the sample count; the issue's failed_frac and ref_dev_pct by their own
// names; the plain median, the mean-based throughput and the tail
// percentile of the op wall times, none of which repeats within a quarter
// on a shared box; and the median of the set-ups and the first of them,
// the one that pays any process-wide lazy initialisation.
func (u *untraced) info() []metric {
	n := float64(u.ops.attempted())
	total := 0.0
	for _, ms := range u.ops.ms {
		total += ms
	}
	out := []metric{
		{"samples", n, "count"},
		{"failed_frac", float64(u.ops.failed) / n, "ratio"},
		{"ref_dev_pct", u.ops.devPct, "%"},
		{"op_ms_p50", median(u.ops.ms), "ms"},
		{"ops_per_s", n / (total / 1000), "1/s"},
		{"setup_p50_s", median(u.setups), "s"},
		{"setup_first_s", u.setups[0], "s"},
	}
	if off := u.ops.off; off.halves > 0 {
		// The finisher's part of allocs_per_op and alloc_mb_per_op.
		out = append(out,
			metric{"offclock_allocs_per_op", float64(off.mallocs) / float64(off.halves), "allocs"},
			metric{"offclock_mb_per_op", float64(off.bytes) / float64(off.halves) / 1e6, "MB"})
	}
	if pct, v, ok := tailPercentile(u.ops.ms); ok {
		out = append(out, metric{fmt.Sprintf("bench.op_ms_tail_p%.0f", pct), v, "ms"})
	}
	return out
}
