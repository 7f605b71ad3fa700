// echo passes its parameter to its result; chained calls keep the
// taint alive.
package pipeline

import (
	"time"

	"giostub"
)

func stamp() string {
	t := time.Now()
	return t.String()
}

func echo(s string) string { return s }

func writeChain() {
	s := echo(echo(stamp()))
	_ = gio.WriteFile("chain", []byte(s)) // want `nondeterministic value from time\.Now reaches gio\.WriteFile \(arg 2\) \(witness: time\.Now → t → String\(\) → stamp\(\) → echo\(\) → s\)`
}

func writeConstChain() {
	_ = gio.WriteFile("const", []byte(echo(echo("v1"))))
}
