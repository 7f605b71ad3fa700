package main

import (
	"fmt"
	"os"
	"runtime"
)

// shareLayers are the packages the workloads call into directly, in print
// order; "bench" is the ops' own glue (root-span self time).
var shareLayers = []string{
	"core", "ic", "nbody", "cosmotools", "powerspec", "halo", "gio",
	"catalog", "mpi", "kdtree", "so", "subhalo", "bench",
}

// traceWorkload sets w up once, times a few ops untraced and then traced
// under tr, and returns the per-workload trace metrics: the tracing
// overhead, how much of the op time the top-level spans account for, and
// each layer's share of it (self time; ranks running in parallel both
// count, so shares can sum past 100).
func traceWorkload(w workload, e *env, tr *tracer, plainStop, tracedStop stopFunc) ([]metric, *opStats, error) {
	inst, _, err := setUp(w, e)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	plain := timeOps(w, inst, nil, 0, plainStop)
	traced := timeOps(w, inst, tr, plain.attempted(), tracedStop)
	finishOps(w, inst, traced)
	base := floor(plain.ms, plain.input)
	ms := []metric{{"bench.trace_overhead_pct", 100 * (floor(traced.ms, traced.input) - base) / base, "%"}}
	shares, cover := layerShares(tr.spans, w.name)
	ms = append(ms, metric{"bench.top_level_cover_pct", cover, "%"})
	for _, l := range shareLayers {
		ms = append(ms, metric{"share." + l + "_pct", shares[l], "%"})
		delete(shares, l)
	}
	for l := range shares {
		return nil, nil, fmt.Errorf("span layer %q is missing from shareLayers", l)
	}
	// Fold the two loops into one verdict.
	plain.add(traced)
	return ms, plain, nil
}

// runTraced is the `-trace` mode: per workload the trace metrics, then the
// layer probes once, then (for `-trace FILE`) the Chrome trace file.
func runTraced(ws []workload, e *env, o options, plainStop, tracedStop stopFunc, out *os.File) error {
	tr := newTracer()
	verdict := &opStats{}
	var traced [][]metric
	for _, w := range ws {
		ms, ops, err := traceWorkload(w, e, tr, plainStop, tracedStop)
		if err != nil {
			return err
		}
		printMetrics(out, w.name, ms)
		if ops.firstErr != nil {
			fmt.Fprintf(out, "# %s FAILED CHECK: %v\n", w.name, ops.firstErr)
		}
		traced = append(traced, ms)
		verdict.ms = append(verdict.ms, ops.ms...)
		verdict.failed += ops.failed
	}
	layers, err := runProbes(e)
	if err != nil {
		return err
	}
	printMetrics(out, "layers", layers)
	for i := range traced {
		traced[i] = append(traced[i], layers...)
		if err := checkPerLayer(traced[i]); err != nil {
			return err
		}
	}
	if o.trace != "1" {
		if err := tr.writeChrome(o.trace); err != nil {
			return err
		}
		fmt.Fprintf(out, "# bench: wrote %d spans to %s (open in chrome://tracing or ui.perfetto.dev)\n", len(tr.spans), o.trace)
	}
	if o.workload != "" {
		if err := printJSON(out, verdict, traced[0]); err != nil {
			return err
		}
	}
	if verdict.failed > 0 {
		return errChecksFailed
	}
	return nil
}
