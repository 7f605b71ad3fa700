// An address-taken variable's cell is flow-insensitive: a later
// store of a constant does not clean it, and a store before the
// pointer escapes is still read after it.
package pipeline

import (
	"math/rand"

	"giostub"
)

func touch(p *int) {}

func writeOverwritten() {
	x := rand.Int()
	touch(&x)
	x = 1
	_ = gio.WriteFile("overwritten", []byte{byte(x)}) // want `nondeterministic value from math/rand\.Int reaches gio\.WriteFile \(arg 2\)`
}

func writeReadBack() {
	x := rand.Int()
	touch(&x)
	_ = gio.WriteFile("readback", []byte{byte(x)}) // want `nondeterministic value from math/rand\.Int reaches gio\.WriteFile \(arg 2\)`
}
