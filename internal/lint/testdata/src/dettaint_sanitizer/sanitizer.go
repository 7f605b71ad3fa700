// time.Since turns a wall-clock reading into a duration: the sanitized
// value reaches the write clean, the raw reading does not.
package pipeline

import (
	"time"

	"giostub"
)

func writeElapsed() {
	start := time.Now()
	d := time.Since(start)
	_ = gio.WriteFile("elapsed", []byte(d.String()))
}

func writeStart() {
	start := time.Now()
	_ = gio.WriteFile("start", []byte(start.String())) // want `nondeterministic value from time\.Now reaches gio\.WriteFile \(arg 2\)`
}
