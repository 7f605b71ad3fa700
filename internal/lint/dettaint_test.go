package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

// TestDetTaint runs the product-write fixtures, then one fixture per
// value-flow shape the solve must keep deciding the same way.
func TestDetTaint(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.DetTaint,
		"dettaint_flagged", "dettaint_clean", "dettaint_allow", "dettaint_xpkg",
		"dettaint_obs_flagged", "dettaint_obs_clean")
	analysistest.Run(t, analysistest.TestData(), lint.DetTaint,
		"dettaint_direct", "dettaint_sanitizer", "dettaint_inplace_sanitizer",
		"dettaint_join", "dettaint_result_summary", "dettaint_param_sink",
		"dettaint_param_chain", "dettaint_unknown_callee", "dettaint_len",
		"dettaint_store_after_escape", "dettaint_address_taken",
		"dettaint_captured", "dettaint_field_store", "dettaint_reassign",
		"dettaint_encoder")
}

// TestNondeterminism runs the kernel-rule fixtures — the source itself
// is the finding inside a deterministic package — under the one
// determinism analyzer.
func TestNondeterminism(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.DetTaint,
		"nondet_flagged", "nondet_clean", "nondet_otherpkg", "nondet_allow",
		"nondet_clock", "nondet_sched")
}
