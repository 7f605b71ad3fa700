// A helper's result carries source taint; the caller comes first in
// the file, so the package fixpoint must still resolve mk's summary.
// The finding lands at the caller's write.
package pipeline

import (
	"math/rand"

	"giostub"
)

func use() {
	_ = gio.WriteFile("mk", []byte{byte(mk())}) // want `nondeterministic value from math/rand\.Int reaches gio\.WriteFile \(arg 2\) \(witness: math/rand\.Int → mk\(\)\)`
}

func mk() int {
	return rand.Int()
}
