package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func quickEnv(t *testing.T) *env {
	t.Helper()
	return &env{seed: 1, size: quickSizing, ranks: 2, workdir: t.TempDir()}
}

// tampered damages an op's output after the op's clock has stopped and
// before its check runs.
type tampered struct {
	instance
	damage func(i int) error
}

func (tm tampered) op(i int, root *ref) (func() (float64, error), error) {
	check, err := tm.instance.op(i, root)
	if err != nil {
		return nil, err
	}
	return func() (float64, error) {
		if err := tm.damage(i); err != nil {
			return 0, err
		}
		return check()
	}, nil
}

// corruptions damage one output of the workloads that persist products: one
// byte of a campaign_recover Level 2 file, one record of an
// analysis_offline catalog.
var corruptions = map[string]func(inst instance) instance{
	"campaign_recover": func(inst instance) instance {
		inst.(*campaignRecover).afterPersist = func(dir string) error {
			path := filepath.Join(dir, "l2", "step003.gio")
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x40
			return os.WriteFile(path, data, 0o644)
		}
		return inst
	},
	"analysis_offline": func(inst instance) instance {
		a := inst.(*analysisOffline)
		return tampered{inst, func(i int) error {
			// Rewrite the first record's particle count.
			path := filepath.Join(a.dir, "op"+strconv.Itoa(i)+".centers")
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			lines := strings.SplitN(string(data), "\n", 3)
			lines[1] += "9"
			return os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644)
		}}
	},
}

// Every workload runs end to end at the quick sizing: set-up, the
// discarded warm-up op and one timed op, all through their output checks,
// and the seven gated metrics come out finite and non-zero. Then, because a
// checker that cannot fail is not a check, one output is corrupted and the
// next op must fail: failed_frac and ref_dev_pct above zero, and main's
// verdict the one that exits non-zero.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing here asserts a time
			inst, d, err := setUp(w, quickEnv(t))
			if err != nil {
				t.Fatal(err)
			}
			u := &untraced{workload: w.name, setups: []float64{d.Seconds()}, ops: timeOps(w, inst, nil, 0, forOps(1))}
			finishOps(w, inst, u.ops)
			if u.ops.failed != 0 {
				t.Fatalf("op failed its check: %v", u.ops.firstErr)
			}
			ms := u.metrics()
			if len(ms) != len(endToEnd) {
				t.Fatalf("%d metrics, want %d", len(ms), len(endToEnd))
			}
			for _, m := range ms {
				if !(m.value > 0) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v %s: a gated metric must be finite and never 0", m.name, m.value, m.unit)
				}
			}
			if err := verdict([]*untraced{u}); err != nil {
				t.Errorf("verdict = %v for a clean run", err)
			}
			// campaign_recover's persisted half runs off the clock, once per
			// weather pool, and its allocations are charged to the op.
			if _, ok := inst.(finisher); ok && (u.ops.off.halves != weatherPool || u.ops.off.mallocs == 0) {
				t.Errorf("off-clock halves: %+v, want %d with allocations counted", u.ops.off, weatherPool)
			}

			corrupt, ok := corruptions[w.name]
			if !ok {
				return
			}
			inst = corrupt(inst)
			u.ops = timeOps(w, inst, nil, 1, forOps(1))
			finishOps(w, inst, u.ops)
			info := map[string]float64{}
			for _, m := range u.info() {
				info[m.name] = m.value
			}
			if info["failed_frac"] != 1 || !(info["ref_dev_pct"] > 0) {
				t.Errorf("failed_frac = %v, ref_dev_pct = %v after corruption; want 1 and > 0 (first error: %v)",
					info["failed_frac"], info["ref_dev_pct"], u.ops.firstErr)
			}
			if err := verdict([]*untraced{u}); !errors.Is(err, errChecksFailed) {
				t.Errorf("verdict = %v after corruption, want errChecksFailed (non-zero exit)", err)
			}
		})
	}
}

func TestFloor(t *testing.T) {
	// Two inputs: the slow one must carry half the weight however few of
	// the ops ran on it, and interference (the 90s) must not show.
	ms := []float64{10, 11, 90, 10, 12, 40, 95, 41}
	input := []int{0, 0, 0, 0, 0, 1, 1, 1}
	if got := floor(ms, input); got != 25 {
		t.Errorf("floor = %v, want (10+40)/2", got)
	}
	// From 11 repeats on, the nearest-rank decile is the second fastest.
	many := make([]float64, 11)
	for i := range many {
		many[i] = float64(20 - i)
	}
	if got := floor(many, make([]int, 11)); got != 11 {
		t.Errorf("floor of 10..20 = %v, want 11", got)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[n-1-i] = float64(i + 1) // descending, so sorting matters
		}
		return vs
	}
	if _, _, ok := tailPercentile(seq(19)); ok {
		t.Error("19 samples cannot leave ten beyond any percentile past the median")
	}
	for _, tc := range []struct {
		n          int
		pct, value float64
	}{
		{20, 50, 10},   // ten of twenty lie beyond the median
		{600, 98, 590}, // the issue's p98 at 600 ops
		{1000, 99, 990},
	} {
		pct, v, ok := tailPercentile(seq(tc.n))
		if !ok || pct != tc.pct || v != tc.value {
			t.Errorf("tailPercentile(1..%d) = p%v %v %v, want p%v %v", tc.n, pct, v, ok, tc.pct, tc.value)
		}
	}
}

func TestSelfTimesAndShares(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "bench.op", workload: "w", parent: -1, start: 0, end: 100 * ms},
		{name: "gio.ReadFile", workload: "w", parent: 0, start: 10 * ms, end: 20 * ms},
		{name: "mpi.RunRanks", workload: "w", parent: 0, start: 20 * ms, end: 90 * ms},
		// Two ranks overlapping inside RunRanks: covered once, 30..80.
		{name: "halo.FOF", workload: "w", parent: 2, lane: 1, start: 30 * ms, end: 70 * ms},
		{name: "halo.FOF", workload: "w", parent: 2, lane: 2, start: 40 * ms, end: 80 * ms},
		{name: "bench.op", workload: "other", parent: -1, start: 200 * ms, end: 300 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{20 * ms, 10 * ms, 20 * ms, 40 * ms, 40 * ms, 100 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].name, self[i], want[i])
		}
	}
	shares, cover := layerShares(spans, "w")
	if cover != 100 {
		t.Errorf("top-level spans cover %v%% of the op, want 100", cover)
	}
	for layer, want := range map[string]float64{"bench": 20, "gio": 10, "mpi": 20, "halo": 80} {
		if got := shares[layer]; math.Abs(got-want) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", layer, got, want)
		}
	}
}

// The traced path: spans nest under the op, the top-level spans account
// for the op's wall time, and the Chrome file loads as JSON.
func TestTraceWorkload(t *testing.T) {
	t.Parallel()
	w, _ := findWorkload("pipeline_insitu")
	tr := newTracer()
	ms, ops, err := traceWorkload(w, quickEnv(t), tr, forOps(1), forOps(1))
	if err != nil || ops.failed != 0 {
		t.Fatal(err, ops.firstErr)
	}
	got := map[string]float64{}
	for _, m := range ms {
		got[m.name] = m.value
	}
	if c := got["bench.top_level_cover_pct"]; c < 95 || c > 105 {
		t.Errorf("top-level spans cover %v%% of the op, want 100 ± 5", c)
	}
	for _, layer := range []string{"nbody", "halo", "powerspec", "ic"} {
		if !(got["share."+layer+"_pct"] > 0) {
			t.Errorf("share.%s_pct = %v; pipeline_insitu calls into %s", layer, got["share."+layer+"_pct"], layer)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) < len(tr.spans) {
		t.Errorf("trace file: %v, %d events for %d spans", err, len(doc.TraceEvents), len(tr.spans))
	}
}

// BENCHMARK.json at the repository root is the contract the driver reads;
// it must list exactly the workloads and metrics this package prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []decl   `json:"workloads"`
		EndToEnd   []decl   `json:"end_to_end"`
		PerLayer   []decl   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, -seconds defaults to %v", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := b.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), code has %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in code", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := b.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound == nil || *d.Bound != m.bound {
			t.Errorf("end-to-end metric %d: declared %+v, code has %+v", i, d, m)
		}
	}
	// The driver refuses the file outright past these limits.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append(append([]decl{}, b.Workloads...), b.EndToEnd...), b.PerLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Unit != "" && !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if len(d.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", d.Name, len(d.Why))
		}
		if d.Bound != nil && (*d.Bound < 0 || *d.Bound > 0.25) {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, *d.Bound)
		}
	}
	if len(b.PerLayer) > 128 || len(data) > 64<<10 {
		t.Errorf("%d per-layer metrics (limit 128), %d bytes (limit 64 KiB)", len(b.PerLayer), len(data))
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in code", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if d := b.PerLayer[i]; d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != nil {
			t.Errorf("per-layer metric %d: declared %+v, code has %+v", i, d, m)
		}
	}
}
