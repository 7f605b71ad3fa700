// An in-place sort canonicalizes a slice whose order came from a map
// range in a helper: after sort.Strings the write is clean.
package pipeline

import (
	"sort"

	"giostub"
)

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func writeSorted(m map[string]int) {
	ks := keys(m)
	sort.Strings(ks)
	_ = gio.WriteFile("sorted", []byte(ks[0]))
}

func writeUnsorted(m map[string]int) {
	ks := keys(m)
	_ = gio.WriteFile("unsorted", []byte(ks[0])) // want `nondeterministic value from map iteration order reaches gio\.WriteFile \(arg 2\)`
}
