package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

func TestDetTaint(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.DetTaint,
		"dettaint_flagged", "dettaint_clean", "dettaint_allow", "dettaint_xpkg",
		"dettaint_obs_flagged", "dettaint_obs_clean")
}

// TestNondeterminism runs the kernel-rule fixtures — the source itself
// is the finding inside a deterministic package — under the one
// determinism analyzer.
func TestNondeterminism(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.DetTaint,
		"nondet_flagged", "nondet_clean", "nondet_otherpkg", "nondet_allow",
		"nondet_clock", "nondet_sched")
}
