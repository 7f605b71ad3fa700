// Package testsupport holds helpers shared by the tests of several
// packages. Nothing outside tests imports it.
package testsupport

import (
	"math"
	"runtime"
)

// Allocated returns the fewest heap bytes any of three calls of f
// allocates, after a first call has done any lazy initialisation: the
// count is process-wide, so one call can be charged for another
// goroutine's allocation.
func Allocated(f func()) uint64 {
	f()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
