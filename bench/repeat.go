package main

import (
	"fmt"
	"os"
)

// exactUnits mark layer metrics that are counted or simulated, not timed:
// two runs at one seed must print them identically.
var exactUnits = map[string]bool{"count": true, "bytes": true, "core-h": true, "sim-s": true}

// verifyRepeat is the benchmark checking its own repeatability: the
// untraced set twice (the second time with the first's op counts, so
// per-op averages cover the same ops) and the layer probes twice. Timings
// and allocations must agree within their bounds; pass/fail, reference
// agreement and every counted or simulated layer metric exactly.
func verifyRepeat(ws []workload, e *env, whole budget, out *os.File) error {
	first, err := untracedSet(ws, e, func(workload) budget { return whole }, out)
	if err != nil {
		return err
	}
	counts := map[string]int{}
	for _, u := range first {
		counts[u.workload] = u.ops.attempted()
	}
	second, err := untracedSet(ws, e, func(w workload) budget { return budget{ops: counts[w.name]} }, out)
	if err != nil {
		return err
	}
	bad := 0
	report := func(workload, name string, a, b, bound float64, unit string) {
		d := relDiff(a, b)
		verdict := "ok"
		if d > bound {
			verdict = "DISAGREE"
			bad++
		}
		fmt.Fprintf(out, "repeat %-17s %-28s %14.6g %14.6g %s  diff %.4f bound %.4f %s\n",
			workload, name, a, b, unit, d, bound, verdict)
	}
	for i, u := range first {
		a, b := u.metrics(), second[i].metrics()
		for k, m := range a {
			bound := endToEnd[k].bound
			if endToEnd[k].exact {
				bound = 0
			}
			report(u.workload, m.name, m.value, b[k].value, bound, m.unit)
		}
		bad += u.ops.failed + second[i].ops.failed
	}
	la, err := runProbes(e)
	if err != nil {
		return err
	}
	lb, err := runProbes(e)
	if err != nil {
		return err
	}
	for k, m := range la {
		if exactUnits[m.unit] {
			report("layers", m.name, m.value, lb[k].value, 0, m.unit)
		}
	}
	if bad > 0 {
		return fmt.Errorf("verify-repeat: %d disagreements or failed ops", bad)
	}
	fmt.Fprintln(out, "# bench: verify-repeat passed")
	return nil
}
