//go:build race

package repro

// Under go test -race the end-to-end tests run race-built tools, so the
// race run checks the listener's job goroutines and every other
// goroutine the binaries start.
func init() { buildFlags = []string{"-race"} }
