// Observability surface of workflow-sim: the -cost study and the
// -trace/-spantree/-metrics artifact dump. Artifacts are deterministic
// bytes for a fixed seed (the obs package contract), which CI pins by
// running the tool twice and cmp-ing the outputs.
package main

import (
	"bytes"
	"fmt"
	"math"
	"os"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
)

// costStudy reruns the paper's three headline workflow variants with an
// observer each, prints the per-phase cost breakdown priced at each
// machine's charge factor, and returns the observers for trace export. The
// phase rows mirror Table 4's columns; the charged core-hours reproduce
// Table 3's in-situ vs off-line vs co-scheduled comparison.
func costStudy(seed int64) ([]*obs.Observer, error) {
	kinds := []core.Kind{core.InSitu, core.Offline, core.CombinedCoScheduled}
	fmt.Println("Per-phase cost accounting (Titan charge policy: 1 node-hour = 30 core-hours):")
	fmt.Println()
	var observers []*obs.Observer
	for _, k := range kinds {
		s, err := core.DownscaledScenario(seed)
		if err != nil {
			return nil, err
		}
		o := obs.New(string(k), nil)
		s.Obs = o
		r, err := core.Run(s, k)
		if err != nil {
			return nil, err
		}
		observers = append(observers, o)
		rep := obs.Cost(o)
		if err := rep.WriteTable(os.Stdout); err != nil {
			return nil, err
		}
		// Cross-check the span rollup against the report's own accounting:
		// everything charged except the "sim" physics phase is analysis-
		// attributable, and must reproduce Report.AnalysisCoreHours.
		charged := 0.0
		for _, l := range rep.Lines {
			if l.Category != "sim" {
				charged += l.CoreHours
			}
		}
		if math.Abs(charged-r.AnalysisCoreHours) > 1e-6*(1+math.Abs(r.AnalysisCoreHours)) {
			return nil, fmt.Errorf("cost rollup %.6f core-hours disagrees with report %.6f", charged, r.AnalysisCoreHours)
		}
		fmt.Printf("  analysis-attributable: %.2f core hours (matches Table 3 accounting)\n\n", charged)
	}
	return observers, nil
}

// dumpArtifacts writes the requested observability artifacts: Chrome
// trace-event JSON (chrome://tracing / Perfetto), the plain-text span
// tree, and the metrics registries on stdout. Writes are atomic so a
// killed run never leaves a torn artifact.
func dumpArtifacts(observers []*obs.Observer, tracePath, spanPath string, metrics bool) error {
	if tracePath != "" {
		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf, observers...); err != nil {
			return err
		}
		if err := ckpt.WriteFileAtomic(tracePath, buf.Bytes()); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (open in chrome://tracing or Perfetto)\n", tracePath)
	}
	if spanPath != "" {
		var buf bytes.Buffer
		for _, o := range observers {
			if err := obs.WriteSpanTree(&buf, o); err != nil {
				return err
			}
		}
		if err := ckpt.WriteFileAtomic(spanPath, buf.Bytes()); err != nil {
			return err
		}
		fmt.Printf("span tree written to %s\n", spanPath)
	}
	if metrics {
		for _, o := range observers {
			if o == nil {
				continue
			}
			fmt.Printf("metrics: %s\n", o.Name())
			if err := o.Metrics().WriteText(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}
