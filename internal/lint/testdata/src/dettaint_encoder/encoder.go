// An encoder call with no summary taints only its result, not the
// buffer the encoder writes into.
package pipeline

import (
	"bytes"
	"encoding/json"
	"time"

	"giostub"
)

func stamp() string {
	t := time.Now()
	return t.String()
}

func writeEncoded() {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	_ = enc.Encode(stamp())
	_ = gio.WriteFile("encoded", buf.Bytes())
}
