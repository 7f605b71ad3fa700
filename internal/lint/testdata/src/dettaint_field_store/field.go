// A field store taints its base; the write of the field reads it back.
package pipeline

import (
	"time"

	"giostub"
)

func stamp() string {
	t := time.Now()
	return t.String()
}

type record struct{ stamp string }

func writeField() {
	var r record
	r.stamp = stamp()
	_ = gio.WriteFile("field", []byte(r.stamp)) // want `nondeterministic value from time\.Now reaches gio\.WriteFile \(arg 2\) \(witness: time\.Now → t → String\(\) → stamp\(\)\)`
}
