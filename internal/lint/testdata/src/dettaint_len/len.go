// len carries no content taint.
package pipeline

import (
	"time"

	"giostub"
)

func stamp() string {
	t := time.Now()
	return t.String()
}

func writeLen() {
	s := stamp()
	_ = gio.WriteFile("len", []byte{byte(len(s))})
}
