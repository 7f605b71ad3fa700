package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/platform"
)

// fakeClock is a settable deterministic clock.
type fakeClock struct{ t float64 }

func (c *fakeClock) now() float64 { return c.t }

func TestNilObserverInert(t *testing.T) {
	var o *Observer
	o.SetClock(func() float64 { return 1 })
	sp := o.Begin("cat", "x")
	if sp != nil {
		t.Fatalf("nil observer Begin = %v, want nil", sp)
	}
	// Every span method must tolerate nil.
	sp.Done()
	sp.EndAt(5)
	sp.Arg("k", "v").Charge(platform.Titan(), 4)
	if d := sp.Duration(); d != 0 {
		t.Fatalf("nil span duration = %g", d)
	}
	if got := o.Spans(); got != nil {
		t.Fatalf("nil observer Spans = %v", got)
	}
	reg := o.Metrics()
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(3)
	reg.Histogram("h", []float64{1}).Observe(2)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry WriteText = %q, %v", buf.String(), err)
	}
	if err := WriteTrace(&buf, o, nil); err != nil {
		t.Fatalf("WriteTrace(nil observers): %v", err)
	}
	if err := WriteSpanTree(&buf, o); err != nil {
		t.Fatalf("WriteSpanTree(nil): %v", err)
	}
}

func TestSpanTreeAndClock(t *testing.T) {
	clk := &fakeClock{}
	o := New("test", nil)
	o.SetClock(clk.now)
	root := o.Begin("campaign", "c8")
	step := o.SpanAt(root, "step", "step-000", 10, 50)
	o.SpanAt(step, "job", "post-000#1", 25, 40).Charge(platform.Moonlight(), 4)
	clk.t = 60
	// Retroactive span under root.
	o.SpanAt(root, "phase", "sim", 0, 55).Charge(platform.Titan(), 32)
	root.Done()

	spans := o.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[2].Start != 25 || spans[2].End != 40 || spans[2].Parent != spans[1].ID {
		t.Fatalf("job span = %+v", *spans[2])
	}
	if spans[0].End != 60 {
		t.Fatalf("root end = %g, want 60", spans[0].End)
	}
	var tree bytes.Buffer
	if err := WriteSpanTree(&tree, o); err != nil {
		t.Fatal(err)
	}
	out := tree.String()
	for _, want := range []string{
		"campaign/c8 [0, 60] dur=60",
		"  step/step-000 [10, 50] dur=40",
		"    job/post-000#1 [25, 40] dur=15 Moonlight×4",
		"  phase/sim [0, 55] dur=55 Titan×32",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("span tree missing %q:\n%s", want, out)
		}
	}
}

func TestEndIsIdempotentAndClamped(t *testing.T) {
	clk := &fakeClock{t: 5}
	o := New("t", clk.now)
	sp := o.Begin("c", "n")
	clk.t = 9
	sp.Done()
	clk.t = 100
	sp.Done() // second End must not move the stamp
	if sp.Duration() != 4 {
		t.Fatalf("duration = %g, want 4", sp.Duration())
	}
	early := o.SpanAt(nil, "c", "back", 50, 10) // clamped: spans never run backwards
	if early.End != 50 {
		t.Fatalf("clamped end = %g, want 50", early.End)
	}
}

func TestTraceDeterministicBytes(t *testing.T) {
	build := func() *Observer {
		clk := &fakeClock{}
		o := New("det", clk.now)
		r := o.Begin("campaign", "c")
		for i := 0; i < 3; i++ {
			start := float64(i * 10)
			o.SpanAt(r, "step", "s", start, start+5).Arg("i", strconv.Itoa(i))
		}
		clk.t = 100
		r.Done()
		o.Metrics().Counter("sched.jobs_submitted").Add(3)
		o.Metrics().Histogram("sched.queue_wait_seconds", []float64{1, 10, 100}).Observe(7)
		return o
	}
	var t1, t2, m1, m2, s1, s2 bytes.Buffer
	a, b := build(), build()
	if err := WriteTrace(&t1, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&t2, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatalf("trace JSON differs across identical runs:\n%s\n---\n%s", t1.String(), t2.String())
	}
	if err := a.Metrics().WriteText(&m1); err != nil {
		t.Fatal(err)
	}
	if err := b.Metrics().WriteText(&m2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Fatalf("metrics text differs:\n%s\n---\n%s", m1.String(), m2.String())
	}
	if err := WriteSpanTree(&s1, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpanTree(&s2, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Fatalf("span tree differs")
	}
	// Sanity on the JSON surface: metadata + fixed field order.
	for _, want := range []string{
		`"ph":"M"`, `"process_name"`, `{"ph":"X","pid":1,"tid":1,"ts":0,"dur":100000000,"name":"c","cat":"campaign"`,
	} {
		if !strings.Contains(t1.String(), want) {
			t.Fatalf("trace missing %q:\n%s", want, t1.String())
		}
	}
}

func TestRegistryEncodeOrderAndValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(2)
	r.Counter("a.first").Inc()
	r.Gauge("mid").Set(7)
	r.Gauge("mid").Set(3) // max stays 7
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "counter a.first 1\n" +
		"counter z.last 2\n" +
		"gauge mid 3 max=7\n" +
		"histogram lat count=3 sum=55.5 le1=1 le10=1 inf=1\n"
	if buf.String() != want {
		t.Fatalf("registry encode:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestCostReportMath(t *testing.T) {
	clk := &fakeClock{}
	o := New("costy", clk.now)
	// 32 Titan nodes for 3600 s → 32 node-hours → 960 core-hours at 30×.
	o.SpanAt(nil, "phase", "sim", 0, 3600).Charge(platform.Titan(), 32)
	// 4 Moonlight nodes for 1800 s → 2 node-hours → 32 core-hours at 16×.
	o.SpanAt(nil, "phase", "post-analysis", 3600, 5400).Charge(platform.Moonlight(), 4)
	// Queue wait: wall time but zero nodes → zero charge.
	o.SpanAt(nil, "queue", "post-queue", 3600, 4000)
	r := Cost(o)
	if len(r.Lines) != 2 {
		t.Fatalf("got %d lines, want 2 (phase, queue)", len(r.Lines))
	}
	phase := r.Lines[0]
	if phase.Category != "phase" || phase.Spans != 2 {
		t.Fatalf("phase line = %+v", phase)
	}
	if phase.NodeHours != 34 || phase.CoreHours != 992 {
		t.Fatalf("phase cost = %g nh / %g ch, want 34 / 992", phase.NodeHours, phase.CoreHours)
	}
	q := r.Lines[1]
	if q.Seconds != 400 || q.CoreHours != 0 {
		t.Fatalf("queue line = %+v", q)
	}
	if r.Total.CoreHours != 992 {
		t.Fatalf("total core-hours = %g", r.Total.CoreHours)
	}
	var buf bytes.Buffer
	if err := r.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "policy titan") || !strings.Contains(buf.String(), "total") {
		t.Fatalf("cost table:\n%s", buf.String())
	}
}

// A span is priced at the charge factor of the machine that held it, not
// by a table keyed on the machine's name.
func TestSpanChargeCarriesMachineFactor(t *testing.T) {
	o := New("factors", nil)
	m := platform.Rhea()
	m.Name, m.ChargeFactor = "scratch", 20
	sp := o.SpanAt(nil, "phase", "post-analysis", 0, 1800).Charge(m, 4)
	if sp.Machine != "scratch" || sp.Nodes != 4 || sp.ChargeFactor != 20 {
		t.Fatalf("span cost dimensions = %s×%d at %g", sp.Machine, sp.Nodes, sp.ChargeFactor)
	}
	if got := Cost(o).Total.CoreHours; got != 40 {
		t.Fatalf("core-hours = %g, want 4 nodes × 0.5 h × 20 = 40", got)
	}
}
