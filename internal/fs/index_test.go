package fs

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/fault"
)

// naiveTier is the tier as it was before the sorted index: a map of what
// landed when, listed by scanning all of it and sorting.
type naiveTier struct {
	visibleAt map[string]float64
	landings  []string
}

func (n *naiveTier) land(path string, at float64) {
	n.visibleAt[path] = at
	n.landings = append(n.landings, path)
}

func (n *naiveTier) list(prefix string, now float64) []string {
	var out []string
	for path, at := range n.visibleAt {
		if strings.HasPrefix(path, prefix) && at <= now {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// The index-backed List, Stat and the arrival log agree with the naive
// map-scan-and-sort tier after any interleaving of writes, overwrites,
// failed and truncated writes, deletes, restores and bit rot at random
// virtual times — checked at random times during the run, so in-flight
// writes are covered too.
func TestIndexMatchesNaiveScan(t *testing.T) {
	prefixes := []string{"", "l2/", "l2/step00", "l2/step003", "l2/step003.gio/", "out", "zz"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sim des.Sim
		s := New(&sim, "lustre")
		s.SetFaults(fault.MustNew(fault.Profile{Seed: seed, WriteFailProb: 0.15, WriteTruncateProb: 0.15}))
		ref := &naiveTier{visibleAt: map[string]float64{}}
		path := func() string {
			return []string{"l2/step%03d.gio", "l2/step%03d", "out/%d"}[rng.Intn(3)]
		}
		ok := true
		check := func() {
			for _, p := range prefixes {
				if got, want := s.List(p), ref.list(p, sim.Now()); !slices.Equal(got, want) {
					t.Logf("seed %d t=%v List(%q) = %v, want %v", seed, sim.Now(), p, got, want)
					ok = false
				}
			}
			if got := s.Arrivals(0); !slices.Equal(got, ref.landings) {
				t.Logf("seed %d t=%v arrivals = %v, want %v", seed, sim.Now(), got, ref.landings)
				ok = false
			}
			for p, at := range ref.visibleAt {
				if f, err := s.Stat(p); err != nil || f.VisibleAt != at {
					t.Logf("seed %d t=%v Stat(%q) = %+v, %v; landed at %v", seed, sim.Now(), p, f, err, at)
					ok = false
				}
			}
		}
		for n := 20 + rng.Intn(60); n > 0; n-- {
			p := fmt.Sprintf(path(), rng.Intn(8))
			dur := float64(rng.Intn(3) * rng.Intn(30))
			var op func()
			switch k := rng.Intn(12); {
			case k < 6:
				op = func() {
					s.WriteChecked(p, 100, dur, nil, func(err error) {
						if err == nil {
							ref.land(p, sim.Now())
						}
					})
				}
			case k < 8:
				op = func() { s.Delete(p); delete(ref.visibleAt, p) }
			case k < 9:
				op = func() { s.Restore(p, 50, nil); ref.land(p, 0) }
			case k < 10:
				op = func() {
					if _, resident := ref.visibleAt[p]; s.Corrupt(p) != resident {
						t.Logf("seed %d Corrupt(%q) disagrees on residency %v", seed, p, resident)
						ok = false
					}
				}
			default:
				op = check
			}
			sim.At(float64(rng.Intn(200)), op)
		}
		sim.Run()
		check()
		if seen := s.Arrivals(0); len(s.Arrivals(len(seen))) != 0 {
			t.Logf("seed %d: a drained cursor still reads arrivals", seed)
			ok = false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(16))}); err != nil {
		t.Error(err)
	}
}
