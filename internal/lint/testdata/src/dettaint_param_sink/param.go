// save writes its own parameter: its summary records the parameter
// reaching the sink, so the finding lands at the caller's call site.
package pipeline

import (
	"time"

	"giostub"
)

func stamp() string {
	t := time.Now()
	return t.String()
}

func save(data []byte) {
	_ = gio.WriteFile("save", data)
}

func writeViaHelper() {
	save([]byte(stamp())) // want `nondeterministic value from time\.Now reaches gio\.WriteFile \(arg 2\) \(witness: time\.Now → t → String\(\) → stamp\(\) → save\(\)\)`
}

func writeConstViaHelper() {
	save([]byte("v1"))
}
