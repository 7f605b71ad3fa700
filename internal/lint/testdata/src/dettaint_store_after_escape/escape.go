// An address-taken variable is one cell for the whole function; the
// store after the pointer escapes still reaches the write.
package pipeline

import (
	"time"

	"giostub"
)

func stamp() string {
	t := time.Now()
	return t.String()
}

func fill(p *string) { *p = "v2" }

func writeAddressTaken() {
	s := "v1"
	fill(&s)
	s = stamp()
	_ = gio.WriteFile("addr", []byte(s)) // want `nondeterministic value from time\.Now reaches gio\.WriteFile \(arg 2\) \(witness: time\.Now → t → String\(\) → stamp\(\)\)`
}
