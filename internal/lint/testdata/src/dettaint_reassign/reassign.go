// A reassignment kills the taint.
package pipeline

import (
	"time"

	"giostub"
)

func stamp() string {
	t := time.Now()
	return t.String()
}

func writeReassigned() {
	x := stamp()
	x = "v1"
	_ = gio.WriteFile("reassigned", []byte(x))
}
