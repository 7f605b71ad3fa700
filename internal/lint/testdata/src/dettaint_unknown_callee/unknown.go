// A call with no summary (strconv is not analyzed) passes its
// arguments' taint to its result.
package pipeline

import (
	"math/rand"
	"strconv"

	"giostub"
)

func writeFormatted() {
	s := strconv.Itoa(rand.Int())
	_ = gio.WriteFile("formatted", []byte(s)) // want `nondeterministic value from math/rand\.Int reaches gio\.WriteFile \(arg 2\) \(witness: math/rand\.Int → Itoa\(\) → s\)`
}
