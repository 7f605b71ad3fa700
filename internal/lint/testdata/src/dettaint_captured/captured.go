// A variable captured by a literal, set from time.Now inside it and
// written outside it: value flow does not cross a function literal's
// boundary, so this is clean.
package pipeline

import (
	"time"

	"giostub"
)

func writeCaptured() {
	var s string
	set := func() { s = time.Now().String() }
	set()
	_ = gio.WriteFile("captured", []byte(s))
}
