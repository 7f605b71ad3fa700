package main

import (
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// BenchmarkWorkflowlintRepo measures a full standalone analysis pass —
// all ten analyzers, facts, the call graph, the per-function CFGs,
// and the SSA-lite lowering plus taint fixpoints behind the value-flow
// trio — over every package in this repository. Loading (go list,
// parsing, type-checking) happens once outside the timed loop; the
// benchmark isolates the analysis cost, which is what grows as
// analyzers are added. tuneGC() mirrors the driver: the benchmark
// measures analyzePackages exactly as `workflowlint ./...` runs it.
func BenchmarkWorkflowlintRepo(b *testing.B) {
	tuneGC()
	fset, loaded, err := loadPackages([]string{"repro/..."})
	if err != nil {
		b.Fatal(err)
	}
	var pkgs, files int
	for _, lp := range loaded {
		pkgs++
		files += len(lp.files)
	}
	b.Logf("analyzing %d packages, %d files", pkgs, files)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags, _, err := analyzePackages(fset, loaded, analysis.NewFactStore())
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("repo is expected lint-clean, got %d diagnostics", len(diags))
		}
	}
}

// TestRepoLintClean is the repository gate and the lock-order
// regression pin: the full suite — lockorder's global ordering graph
// included — over every package must report nothing. A new Lock()
// added against the established order in sched/transit/supervise turns
// this red before it can deadlock a campaign.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	fset, loaded, err := loadPackages([]string{"repro/..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := analyzePackages(fset, loaded, analysis.NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", d.posn(), d.Analyzer, d.Message)
		if strings.Contains(d.Message, "lock order inversion") {
			t.Error("a lock order inversion crept into the repo: restore the established acquisition order rather than suppressing this")
		}
	}
}
