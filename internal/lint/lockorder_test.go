package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.LockOrder,
		"lockorder_flagged", "lockorder_clean", "lockorder_allow",
		"lockorder_xa", "lockorder_xb")
}

// TestLockDiscipline runs the leaked-lock, lock-copy and
// channel-op-under-lock fixtures (their directory names predate the
// merge) under the one lock analyzer.
func TestLockDiscipline(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.LockOrder,
		"lockdiscipline_flagged", "lockdiscipline_clean", "lockdiscipline_otherpkg",
		"lockdiscipline_allow", "lockdiscipline_supervise")
}
