// Command bench is this repository's benchmark (BENCHMARK.json): five
// workloads, seven end-to-end metrics measured with tracing off, and a
// separate traced run that times every layer from outside through its
// public API. README.md in this directory is the glossary.
//
//	go run ./bench                          every workload, untraced
//	go run ./bench -workload campaign_clean one workload; last line is JSON
//	go run ./bench -trace trace.json        traced run + per-layer metrics
//	go run ./bench -verify-repeat           two untraced sets must agree
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setBudget aborts an untraced set of all five workloads that runs past
// it: a benchmark that silently takes longer is measuring something else.
const setBudget = 180 * time.Second

// runBudget bounds the run of one workload, the form the driver invokes
// and kills at 180 s: an engine call that never returns (README.md, open
// finding 5) must end as a clean non-zero exit with the scratch directory
// gone, not as a kill that leaves it behind.
const runBudget = 170 * time.Second

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        string
	workdir      string
	quick        bool
	verifyRepeat bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the result as one JSON object on the last line (default: all five)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measure each workload for this long")
	flag.StringVar(&o.trace, "trace", "0", "0: untraced end-to-end run; 1: traced run printing the per-layer metrics; FILE: traced run that also writes Chrome trace-event JSON to FILE")
	flag.StringVar(&o.workdir, "workdir", "", "parent for the run's scratch directory (default .bench_work under the current directory)")
	flag.BoolVar(&o.quick, "quick", false, "reduced sizing (what `go test ./bench` drives): 32³, 8 PM steps, 10-step campaigns, trimmed model_tables, 2 ops per loop")
	flag.BoolVar(&o.verifyRepeat, "verify-repeat", false, "run the untraced set and the exact-valued layer probes twice and exit non-zero when a pair disagrees by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errChecksFailed is run's verdict when every step ran but some op failed
// its output check.
var errChecksFailed = errors.New("one or more ops failed their output check")

// run is main without the exit: it owns the scratch directory and removes
// it on every path out, including a failed check.
func run(o options, out *os.File) (err error) {
	threads := runtime.NumCPU()
	if threads > 4 {
		threads = 4
	}
	runtime.GOMAXPROCS(threads)
	e := &env{seed: o.seed, size: fullSizing, ranks: 2}
	if threads < e.ranks {
		e.ranks = threads
	}
	// A traced run spends a fifth of -seconds on untraced reference ops and
	// three tenths on traced ones; the layer probes take the rest.
	d := time.Duration(o.seconds * float64(time.Second))
	whole, plainStop, tracedStop := budget{d: d}, forSeconds(d/5), forSeconds(3*d/10)
	if o.quick {
		e.size = quickSizing
		whole, plainStop, tracedStop = budget{ops: 2}, forOps(2), forOps(2)
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}

	root := o.workdir
	if root == "" {
		root = ".bench_work"
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("creating workdir parent: %w", err)
	}
	if e.workdir, err = os.MkdirTemp(root, "run-"); err != nil {
		return fmt.Errorf("creating workdir: %w", err)
	}
	cleanup := func() error {
		err := os.RemoveAll(e.workdir)
		if o.workdir == "" {
			// Drop the default parent too when no concurrent run is using it.
			_ = os.Remove(root)
		}
		return err
	}
	defer func() { err = errors.Join(err, cleanup()) }()
	// One runBudget per workload measured, per pass over them.
	limit := runBudget * time.Duration(len(selected))
	if o.verifyRepeat {
		limit *= 3 // two untraced sets and the layer probes twice
	}
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: still running after %v; giving up\n", limit)
		_ = cleanup()
		os.Exit(3)
	})
	defer watchdog.Stop()
	abs, _ := filepath.Abs(e.workdir)
	fmt.Fprintf(out, "# bench: sizing=%s seed=%d GOMAXPROCS=%d nproc=%d mpi_ranks=%d dparallel_workers=%d %s workdir=%s\n",
		e.size.name, e.seed, threads, runtime.NumCPU(), e.ranks, e.ranks, runtime.Version(), abs)

	switch {
	case o.verifyRepeat:
		return verifyRepeat(selected, e, whole, out)
	case o.trace != "0":
		return runTraced(selected, e, o, plainStop, tracedStop, out)
	}
	results, err := untracedSet(selected, e, func(workload) budget { return whole }, out)
	if err != nil {
		return err
	}
	if o.workload != "" {
		if err := printJSON(out, results[0].ops, results[0].metrics()); err != nil {
			return err
		}
	}
	return verdict(results)
}

// verdict turns any failed op into the error that makes main exit non-zero.
func verdict(results []*untraced) error {
	for _, u := range results {
		if u.ops.failed > 0 {
			return errChecksFailed
		}
	}
	return nil
}

// untracedSet measures the given workloads one after another with tracing
// off, printing each one's metrics as it finishes.
func untracedSet(ws []workload, e *env, size func(workload) budget, out *os.File) ([]*untraced, error) {
	start := time.Now()
	var results []*untraced
	for _, w := range ws {
		u, err := measure(w, e, size(w))
		if err != nil {
			return nil, err
		}
		printMetrics(out, w.name, u.metrics())
		printMetrics(out, w.name, u.info())
		if u.ops.firstErr != nil {
			fmt.Fprintf(out, "# %s FAILED CHECK: %v\n", w.name, u.ops.firstErr)
		}
		results = append(results, u)
		if time.Since(start) > setBudget {
			return nil, fmt.Errorf("untraced set passed %v after %s; aborting instead of running long (lower -seconds or fix the slow workload)",
				setBudget, w.name)
		}
	}
	return results, nil
}

// printMetrics prints one `workload metric value unit` line per metric.
func printMetrics(out *os.File, workload string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "%-17s %-28s %14.6g %s\n", workload, m.name, m.value, m.unit)
	}
}

// printJSON prints the driver's result object: every value as measured,
// with all its digits.
func printJSON(out *os.File, ops *opStats, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ops.failed == 0, ops.attempted(), ops.failed, map[string]value{}}
	for _, m := range ms {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		// Only a NaN or Inf metric gets here.
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
