package fault

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if _, fail := in.JobAttempt("j", 0); fail {
		t.Error("nil injector failed a job")
	}
	if out, frac := in.Write("p", 0); out != WriteOK || frac != 1 {
		t.Errorf("nil injector write = %v %v", out, frac)
	}
	if in.ListenerDown(0) {
		t.Error("nil injector reported an outage")
	}
	if _, _, rot := in.BitRot("p", 0); rot {
		t.Error("nil injector rotted a file")
	}
	if in.RetryJitter("j", 0) != 0 || in.NodeDrains() != nil {
		t.Error("nil injector jitter/drains nonzero")
	}
}

func TestZeroProfileInjectsNothing(t *testing.T) {
	p := Profile{Seed: 42}
	if p.Enabled() {
		t.Error("zero profile enabled")
	}
	in := MustNew(p)
	for i := 0; i < 100; i++ {
		if _, fail := in.JobAttempt("job", i); fail {
			t.Fatal("zero profile failed a job")
		}
		if out, _ := in.Write("path", i); out != WriteOK {
			t.Fatal("zero profile failed a write")
		}
	}
}

// The core determinism property: identical profiles give identical draws,
// independent of query order.
func TestDrawsAreSeededAndOrderIndependent(t *testing.T) {
	p := Profile{Seed: 7, JobFailureProb: 0.5, WriteFailProb: 0.2, WriteTruncateProb: 0.2}
	a, b := MustNew(p), MustNew(p)

	// Query b in reverse order; answers must still match a's.
	type jobDraw struct {
		frac float64
		fail bool
	}
	var fwd []jobDraw
	for i := 0; i < 50; i++ {
		frac, fail := a.JobAttempt("sim", i)
		fwd = append(fwd, jobDraw{frac, fail})
	}
	for i := 49; i >= 0; i-- {
		frac, fail := b.JobAttempt("sim", i)
		if frac != fwd[i].frac || fail != fwd[i].fail {
			t.Fatalf("attempt %d: (%v,%v) != (%v,%v)", i, frac, fail, fwd[i].frac, fwd[i].fail)
		}
	}
	for i := 0; i < 50; i++ {
		oa, fa := a.Write("l2/step001.gio", i)
		ob, fb := b.Write("l2/step001.gio", i)
		if oa != ob || fa != fb {
			t.Fatalf("write %d: (%v,%v) != (%v,%v)", i, oa, fa, ob, fb)
		}
		if a.RetryJitter("sim", i) != b.RetryJitter("sim", i) {
			t.Fatalf("jitter draw %d differs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	pa := Profile{Seed: 1, JobFailureProb: 0.5}
	pb := Profile{Seed: 2, JobFailureProb: 0.5}
	a, b := MustNew(pa), MustNew(pb)
	same := 0
	const n = 200
	for i := 0; i < n; i++ {
		_, fa := a.JobAttempt("j", i)
		_, fb := b.JobAttempt("j", i)
		if fa == fb {
			same++
		}
	}
	if same == n {
		t.Error("seeds 1 and 2 produced identical fault sequences")
	}
}

func TestRatesAreRoughlyHonored(t *testing.T) {
	in := MustNew(Profile{Seed: 3, JobFailureProb: 0.25})
	fails := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if frac, fail := in.JobAttempt("j", i); fail {
			fails++
			if frac < 0.05 || frac > 0.95 {
				t.Fatalf("failure fraction %v outside default range", frac)
			}
		}
	}
	got := float64(fails) / n
	if got < 0.2 || got > 0.3 {
		t.Errorf("failure rate %v, want ~0.25", got)
	}
}

func TestWriteOutcomeSplit(t *testing.T) {
	in := MustNew(Profile{Seed: 4, WriteFailProb: 0.3, WriteTruncateProb: 0.3})
	var fail, trunc, ok int
	const n = 3000
	for i := 0; i < n; i++ {
		switch out, frac := in.Write("p", i); out {
		case WriteFail:
			fail++
		case WriteTruncate:
			trunc++
			if frac <= 0 || frac >= 1 {
				t.Fatalf("truncate frac %v", frac)
			}
		default:
			ok++
		}
	}
	for name, c := range map[string]int{"fail": fail, "trunc": trunc, "ok": ok} {
		frac := float64(c) / n
		lo, hi := 0.25, 0.35
		if name == "ok" {
			lo, hi = 0.35, 0.45
		}
		if frac < lo || frac > hi {
			t.Errorf("%s fraction %v outside [%v,%v]", name, frac, lo, hi)
		}
	}
}

func TestWindowsAndDrains(t *testing.T) {
	p := Profile{
		ListenerOutages: []Window{{Start: 100, End: 200}},
		NodeDrains:      []Drain{{Window: Window{Start: 50, End: 60}, Nodes: 4}},
	}
	if !p.Enabled() {
		t.Error("windowed profile not enabled")
	}
	in := MustNew(p)
	for _, tc := range []struct {
		t    float64
		down bool
	}{{99, false}, {100, true}, {199, true}, {200, false}} {
		if got := in.ListenerDown(tc.t); got != tc.down {
			t.Errorf("ListenerDown(%v) = %v", tc.t, got)
		}
	}
	if d := in.NodeDrains(); len(d) != 1 || d[0].Nodes != 4 {
		t.Errorf("drains = %v", d)
	}
}

func TestCrashSchedule(t *testing.T) {
	p := Profile{Crashes: []Crash{{AtTime: 500}, {AtStep: 3}, {}}}
	if !p.Enabled() {
		t.Error("crash-only profile not enabled")
	}
	in := MustNew(p)
	c, ok := in.CrashFor(0)
	if !ok || c.AtTime != 500 {
		t.Errorf("generation 0: %+v, %v", c, ok)
	}
	c, ok = in.CrashFor(1)
	if !ok || c.AtStep != 3 {
		t.Errorf("generation 1: %+v, %v", c, ok)
	}
	// An unarmed entry and generations past the list run to completion.
	if _, ok := in.CrashFor(2); ok {
		t.Error("unarmed crash reported armed")
	}
	if _, ok := in.CrashFor(3); ok {
		t.Error("generation past schedule crashes")
	}
	if _, ok := (*Injector)(nil).CrashFor(0); ok {
		t.Error("nil injector crashes")
	}
}

func TestValidateRejectsMalformedProfiles(t *testing.T) {
	cases := []struct {
		name string
		p    Profile
		want string
	}{
		{"negative probability", Profile{JobFailureProb: -0.1}, "not a probability"},
		{"probability above one", Profile{JobSlowdownProb: 1.5}, "not a probability"},
		{"negative gray probability", Profile{SubmitFailProb: -1}, "not a probability"},
		{"inverted outage window", Profile{ListenerOutages: []Window{{Start: 200, End: 100}}}, "inverted or empty"},
		{"empty drain window", Profile{NodeDrains: []Drain{{Window: Window{Start: 50, End: 50}, Nodes: 1}}}, "inverted or empty"},
		{"negative drain", Profile{NodeDrains: []Drain{{Window: Window{Start: 0, End: 10}, Nodes: -2}}}, "negative"},
		{"crash with both triggers", Profile{Crashes: []Crash{{}, {AtTime: 2000, AtStep: 3}}}, "at most one"},
		{"crash at negative time", Profile{Crashes: []Crash{{AtTime: -1}}}, "at most one"},
		{"crash at negative step", Profile{Crashes: []Crash{{AtStep: -2}}}, "at most one"},
		{"bit-rot probability above one", Profile{BitRotProb: 1.2}, "not a probability"},
		{"negative transit-delay probability", Profile{TransitDelayProb: -0.2}, "not a probability"},
		{"inverted bit-rot delay", Profile{BitRotDelaySecMin: 900, BitRotDelaySecMax: 30}, "negative or inverted"},
		{"negative bit-rot delay", Profile{BitRotDelaySecMin: -1, BitRotDelaySecMax: 10}, "negative or inverted"},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.p)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, nerr := New(tc.p); nerr == nil {
			t.Errorf("%s: New accepted the profile Validate rejected", tc.name)
		}
	}
	// Valid profiles — including unset crash entries and bit-rot delays —
	// pass.
	for _, p := range []Profile{
		{},
		{Seed: 1, JobSlowdownProb: 0.3, JobStallProb: 0.1, InSituSlowdownProb: 0.2,
			SubmitFailProb: 0.1, TransitDelayProb: 0.2,
			Crashes: []Crash{{}, {AtTime: 500}, {AtStep: 3}}},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate rejected valid profile: %v", err)
		}
	}
}

func TestNilInjectorInjectsNoGrayFailures(t *testing.T) {
	var in *Injector
	if f := in.JobSlowdown("j", 0); f != 1 {
		t.Errorf("nil JobSlowdown = %v", f)
	}
	if _, stall := in.JobStall("j", 0); stall {
		t.Error("nil injector stalled a job")
	}
	if f := in.StepSlowdown(3); f != 1 {
		t.Errorf("nil StepSlowdown = %v", f)
	}
	if in.SubmitFail("p", 0) {
		t.Error("nil injector refused a submit")
	}
}

// A lag-only profile must not arm campaign supervision for a fault the
// campaign model never draws, yet it is still a fault profile.
func TestTransitLagIsNotGray(t *testing.T) {
	p := Profile{TransitDelayProb: 0.2}
	if p.GrayEnabled() {
		t.Error("a transit-lag-only profile reports gray failures")
	}
	if !p.Enabled() {
		t.Error("a transit-lag-only profile reports no faults")
	}
}

func TestGrayDrawsAreSeededAndOrderIndependent(t *testing.T) {
	p := Profile{Seed: 17, JobSlowdownProb: 0.4, JobStallProb: 0.3,
		InSituSlowdownProb: 0.5, SubmitFailProb: 0.3}
	a, b := MustNew(p), MustNew(p)
	// Query b in reverse; every gray draw must match a's.
	type draw struct {
		slow, stallFrac, step float64
		stall, submit         bool
	}
	var fwd []draw
	for i := 0; i < 60; i++ {
		var d draw
		d.slow = a.JobSlowdown("sim", i)
		d.stallFrac, d.stall = a.JobStall("sim", i)
		d.step = a.StepSlowdown(i)
		d.submit = a.SubmitFail("l2/step001.gio", i)
		fwd = append(fwd, d)
	}
	for i := 59; i >= 0; i-- {
		var d draw
		d.slow = b.JobSlowdown("sim", i)
		d.stallFrac, d.stall = b.JobStall("sim", i)
		d.step = b.StepSlowdown(i)
		d.submit = b.SubmitFail("l2/step001.gio", i)
		if d != fwd[i] {
			t.Fatalf("draw %d: %+v != %+v", i, d, fwd[i])
		}
	}
}

// Every magnitude a fault draws stays inside its documented range, and
// the draws spread over most of it.
func TestGraySlowdownRangesHonored(t *testing.T) {
	in := MustNew(Profile{Seed: 5, JobFailureProb: 1, WriteTruncateProb: 1, JobSlowdownProb: 1,
		JobStallProb: 1, InSituSlowdownProb: 1})
	for _, r := range []struct {
		name   string
		lo, hi float64
		draw   func(i int) float64
	}{
		{"JobAttempt failure point", 0.05, 0.95, func(i int) float64 { f, _ := in.JobAttempt("j", i); return f }},
		{"Write truncation fraction", 0.1, 0.9, func(i int) float64 { _, f := in.Write("p", i); return f }},
		{"JobSlowdown factor", 1.5, 4, func(i int) float64 { return in.JobSlowdown("j", i) }},
		{"JobStall stall point", 0.05, 0.95, func(i int) float64 { f, _ := in.JobStall("j", i); return f }},
		{"StepSlowdown factor", 1.5, 4, func(i int) float64 { return in.StepSlowdown(i) }},
	} {
		min, max := math.Inf(1), math.Inf(-1)
		for i := 0; i < 500; i++ {
			v := r.draw(i)
			if v < r.lo || v > r.hi {
				t.Fatalf("%s %v outside [%v, %v]", r.name, v, r.lo, r.hi)
			}
			min, max = math.Min(min, v), math.Max(max, v)
		}
		if span := r.hi - r.lo; min > r.lo+0.05*span || max < r.hi-0.05*span {
			t.Errorf("%s draws span [%v, %v], want most of [%v, %v]", r.name, min, max, r.lo, r.hi)
		}
	}
}

func TestCorruptionDrawsAreSeededAndOrderIndependent(t *testing.T) {
	p := Profile{Seed: 9, BitRotProb: 0.5, BitRotDelaySecMin: 10, BitRotDelaySecMax: 500,
		WriteFailProb: 0.5}
	a, b := MustNew(p), MustNew(p)
	// Interleave draws differently between the two injectors: keyed
	// substreams must make the order irrelevant.
	type rot struct {
		delay, frac float64
		hit         bool
	}
	got := map[string]rot{}
	for i := 0; i < 20; i++ {
		key := "l2/step" + string(rune('a'+i)) + ".gio"
		d, f, hit := a.BitRot(key, 1)
		got[key] = rot{d, f, hit}
	}
	for i := 19; i >= 0; i-- {
		key := "l2/step" + string(rune('a'+i)) + ".gio"
		b.Write(key, 0) // extra unrelated draws must not shift bit-rot draws
		d, f, hit := b.BitRot(key, 1)
		if w := got[key]; d != w.delay || f != w.frac || hit != w.hit {
			t.Fatalf("draw for %s differs across injectors/orders", key)
		}
	}
	hits := 0
	for _, r := range got {
		if !r.hit {
			continue
		}
		hits++
		if r.delay < 10 || r.delay > 500 {
			t.Errorf("rot delay %g outside [10,500]", r.delay)
		}
		if r.frac < 0 || r.frac >= 1 {
			t.Errorf("rot bit fraction %g outside [0,1)", r.frac)
		}
	}
	if hits == 0 || hits == 20 {
		t.Errorf("%d/20 rot hits at prob 0.5 — draws look degenerate", hits)
	}
	// Different epochs re-draw.
	same := true
	for i := 0; i < 20; i++ {
		key := "l2/step" + string(rune('a'+i)) + ".gio"
		_, _, hit1 := a.BitRot(key, 1)
		_, _, hit2 := a.BitRot(key, 2)
		if hit1 != hit2 {
			same = false
		}
	}
	if same {
		t.Error("epoch is not part of the bit-rot draw key")
	}
}

func TestCorruptionEnabledWiring(t *testing.T) {
	if (Profile{}).CorruptionEnabled() {
		t.Error("zero profile reports corruption enabled")
	}
	if p := (Profile{BitRotProb: 0.1}); !p.CorruptionEnabled() || !p.Enabled() {
		t.Errorf("%+v not reported enabled", p)
	}
}

// The first draws of each class at one seed, generated before the draw
// ranges became constants: a changed range, or a changed float64
// operation inside a draw, moves them.
func TestFirstDrawsPinned(t *testing.T) {
	in := MustNew(Profile{Seed: 11, JobFailureProb: 0.5, WriteFailProb: 0.25, WriteTruncateProb: 0.5,
		JobSlowdownProb: 0.5, JobStallProb: 0.5, InSituSlowdownProb: 0.5})
	for _, c := range []struct {
		name string
		draw func(i int) string
		want string
	}{
		{"JobAttempt", func(i int) string { return fmt.Sprint(in.JobAttempt("sim", i)) },
			"0 false, 0.5653980102823906 true, 0.5549098812515357 true, 0.8378800100455147 true, " +
				"0.8793906139836377 true, 0.26403570849744057 true, 0.8784991061213722 true, 0 false"},
		{"Write", func(i int) string { return fmt.Sprint(in.Write("l2/step001.gio", i)) },
			"2 0.48165918134920926, 2 0.7847801488111393, 0 1, 2 0.8291223240097841, " +
				"1 0, 0 1, 2 0.7714356296229105, 2 0.22925708140197135"},
		{"JobSlowdown", func(i int) string { return fmt.Sprint(in.JobSlowdown("sim", i)) },
			"1, 1.8270236462536633, 2.47642391744854, 1, 1, 1, 1.8701627565165384, 1"},
		{"JobStall", func(i int) string { return fmt.Sprint(in.JobStall("sim", i)) },
			"0.11049789290040499 true, 0 false, 0 false, 0.09779726340086518 true, " +
				"0 false, 0 false, 0.6841236488356278 true, 0 false"},
		{"StepSlowdown", func(i int) string { return fmt.Sprint(in.StepSlowdown(i)) },
			"1, 2.1776154919829342, 1, 1, 1, 1, 2.4505562195551267, 1"},
	} {
		var got []string
		for i := 0; i < 8; i++ {
			got = append(got, c.draw(i))
		}
		if g := strings.Join(got, ", "); g != c.want {
			t.Errorf("%s draws 0-7:\n got %s\nwant %s", c.name, g, c.want)
		}
	}
}
