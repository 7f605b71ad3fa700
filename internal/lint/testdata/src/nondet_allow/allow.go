// Allowlist fixture: an explicit //lint:allow suppression silences the
// diagnostic on its own line and on the line below.
package halo

import "math/rand"

func JitterSameLine() float64 {
	return rand.Float64() //lint:allow dettaint decorrelation jitter, not a result
}

func JitterLineAbove() float64 {
	//lint:allow dettaint decorrelation jitter, not a result
	return rand.Float64()
}

func StillFlagged() float64 {
	return rand.Float64() // want `global math/rand call rand.Float64`
}
