// A source reaching a product write through variable copies: the
// witness names each variable hop.
package pipeline

import (
	"math/rand"

	"giostub"
)

func writeDirect() {
	x := rand.Int()
	y := x + 1
	_ = gio.WriteFile("direct", []byte{byte(y)}) // want `nondeterministic value from math/rand\.Int reaches gio\.WriteFile \(arg 2\) \(witness: math/rand\.Int → x → y\)`
}
