// Taint set on one arm of an if survives the join.
package pipeline

import (
	"time"

	"giostub"
)

func stamp() string {
	t := time.Now()
	return t.String()
}

func writeOneArm(c bool) {
	s := "v1"
	if c {
		s = stamp()
	}
	_ = gio.WriteFile("arm", []byte(s)) // want `nondeterministic value from time\.Now reaches gio\.WriteFile \(arg 2\) \(witness: time\.Now → t → String\(\) → stamp\(\) → s\)`
}
