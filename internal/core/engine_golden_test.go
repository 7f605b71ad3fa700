package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/supervise"
)

// updateGolden rewrites testdata/engine_golden.txt from this tree. The
// file is the behavioural spec of an engine refactor: generate it at the
// refactor's parent commit, never on the refactored tree.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/engine_golden.txt from this tree")

const goldenFile = "testdata/engine_golden.txt"

// golden is one case's serialized behaviour, twice. full is every byte.
// masked is the same bytes with the fields that read the clock after the
// event queue drained zeroed: Report.WallClock, CampaignReport.TotalWallClock
// and TrailingSeconds, the time stamp of the scrub decisions taken at that
// instant (ResumableCampaign's final sweep), and the end of every root
// campaign/workflow span (so the trace, span tree and cost table lines
// derived from it). A change to when the queue drains moves full and must
// leave masked alone; any other change moves both.
type golden struct{ full, masked bytes.Buffer }

func (g *golden) printf(format string, args ...interface{}) {
	fmt.Fprintf(&g.full, format, args...)
	fmt.Fprintf(&g.masked, format, args...)
}

// observed serializes everything the observer recorded, then once more
// with the root spans cut to zero length. The observer is spent afterwards.
func (g *golden) observed(t *testing.T, o *obs.Observer) {
	t.Helper()
	g.full.Write(observedArtifacts(t, o))
	for _, sp := range o.Spans() {
		if sp.Parent < 0 && (sp.Cat == "campaign" || sp.Cat == "workflow") {
			sp.End = sp.Start
		}
	}
	g.masked.Write(observedArtifacts(t, o))
}

func (g *golden) report(rep *Report) {
	fmt.Fprintf(&g.full, "%+v\n%s", *rep, FormatDecisions(rep.Decisions))
	m := *rep
	m.WallClock = 0
	fmt.Fprintf(&g.masked, "%+v\n%s", m, FormatDecisions(rep.Decisions))
}

// campaign serializes the report and, line by line, its scrub log.
func (g *golden) campaign(rep *CampaignReport) {
	m := *rep
	m.TotalWallClock, m.TrailingSeconds = 0, 0
	m.ScrubDecisions = slices.Clone(rep.ScrubDecisions)
	for i := range m.ScrubDecisions {
		if m.ScrubDecisions[i].T == rep.TotalWallClock {
			m.ScrubDecisions[i].T = 0
		}
	}
	write := func(buf *bytes.Buffer, r *CampaignReport) {
		fmt.Fprintf(buf, "%+v\n", *r)
		for _, d := range r.ScrubDecisions {
			fmt.Fprintln(buf, d.String())
		}
	}
	write(&g.full, rep)
	write(&g.masked, &m)
}

type goldenCase struct {
	name string
	run  func(t *testing.T, g *golden)
}

var goldenSeeds = []int64{1, 2, 3}

// goldenScenario returns a fresh copy of the seed's downscaled scenario
// (synthesis is the slow part, so it is cached per seed).
func goldenScenario(t *testing.T, cache map[int64]*Scenario, seed int64) *Scenario {
	t.Helper()
	base, ok := cache[seed]
	if !ok {
		var err error
		if base, err = DownscaledScenario(seed); err != nil {
			t.Fatal(err)
		}
		cache[seed] = base
	}
	s := *base
	return &s
}

func goldenFailStop(seed int64) *fault.Profile {
	return &fault.Profile{
		Seed:              seed,
		JobFailureProb:    0.3,
		WriteFailProb:     0.10,
		WriteTruncateProb: 0.05,
		ListenerOutages:   []fault.Window{{Start: 600, End: 1500}},
		NodeDrains:        []fault.Drain{{Window: fault.Window{Start: 500, End: 1000}, Nodes: 2}},
	}
}

func goldenGray(seed int64) *fault.Profile {
	return &fault.Profile{
		Seed:               seed,
		JobSlowdownProb:    0.3,
		JobStallProb:       0.3,
		InSituSlowdownProb: 0.4,
		SubmitFailProb:     0.2,
		TransitDelayProb:   0.2,
	}
}

// goldenWeather mixes fail-stop, storage and gray faults: retries, write
// re-drives, hedges, degradation and rescue in one campaign.
func goldenWeather(faultSeed int64) *fault.Profile {
	return &fault.Profile{
		Seed:               faultSeed,
		JobFailureProb:     0.25,
		WriteFailProb:      0.10,
		WriteTruncateProb:  0.05,
		ListenerOutages:    []fault.Window{{Start: 600, End: 1200}},
		NodeDrains:         []fault.Drain{{Window: fault.Window{Start: 400, End: 900}, Nodes: 2}},
		JobSlowdownProb:    0.25,
		InSituSlowdownProb: 0.3,
		SubmitFailProb:     0.15,
		TransitDelayProb:   0.2,
	}
}

// observedArtifacts serializes everything an attached observer recorded.
func observedArtifacts(t *testing.T, o *obs.Observer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, o); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSpanTree(&buf, o); err != nil {
		t.Fatal(err)
	}
	if err := o.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Cost(o, obs.TitanChargePolicy()).WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenCampaign runs Campaign and serializes the report plus, when the
// scenario is observed, every observability artifact.
func goldenCampaign(t *testing.T, g *golden, s *Scenario, steps int) {
	t.Helper()
	rep, err := Campaign(s, steps)
	if err != nil {
		t.Fatal(err)
	}
	g.campaign(rep)
	g.printf("%s", FormatDecisions(rep.Decisions))
	if s.Obs != nil {
		g.observed(t, s.Obs)
	}
}

// goldenResumable re-invokes ResumableCampaign until it survives its crash
// schedule and serializes each incarnation's outcome (and trace, when
// observed), the final report, the scrub log and every persisted byte
// (products, journal, ledger).
func goldenResumable(t *testing.T, g *golden, mk func() *Scenario, steps int, seed int64) {
	t.Helper()
	dir := t.TempDir()
	for gen := 0; ; gen++ {
		if gen > 4 {
			t.Fatalf("campaign in %s never completed", dir)
		}
		s := mk()
		rep, err := ResumableCampaign(s, steps, dir, seed)
		if s.Obs != nil && (err == nil || errors.Is(err, ErrCampaignCrashed)) {
			// A crashed incarnation's trace is an artifact too (workflow-sim
			// -out DIR -crash-step N -trace FILE).
			g.observed(t, s.Obs)
		}
		if errors.Is(err, ErrCampaignCrashed) {
			g.printf("gen %d: %v\n", gen, err)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		g.printf("gen %d: %+v\n", gen, rep.Resume)
		g.campaign(rep)
		break
	}
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, path)
		g.printf("%s %d %x\n", filepath.ToSlash(rel), len(data), sha256.Sum256(data))
	}
}

func goldenCases(t *testing.T) []goldenCase {
	cache := map[int64]*Scenario{}
	var cases []goldenCase
	add := func(name string, run func(t *testing.T, g *golden)) {
		cases = append(cases, goldenCase{name, run})
	}
	for _, seed := range goldenSeeds {
		seed := seed
		scenario := func(t *testing.T) *Scenario { return goldenScenario(t, cache, seed) }

		// Run: every workflow kind, single-step (Tables 3/4) and multi-step,
		// fault-free and under each fault family.
		profiles := []struct {
			name string
			p    *fault.Profile
		}{{"clean", nil}, {"failstop", goldenFailStop(seed + 40)}, {"gray", goldenGray(seed + 40)}}
		for _, steps := range []int{1, 4} {
			for _, kind := range Kinds() {
				for _, pr := range profiles {
					steps, kind, pr := steps, kind, pr
					add(fmt.Sprintf("run/seed%d/steps%d/%s/%s", seed, steps, strings.ReplaceAll(string(kind), " ", "_"), pr.name),
						func(t *testing.T, g *golden) {
							s := scenario(t)
							s.Timesteps = steps
							s.Faults = pr.p
							rep, err := Run(s, kind)
							if err != nil {
								t.Fatal(err)
							}
							g.report(rep)
						})
				}
			}
		}
		// Run under an observer (workflow-sim -cost): only the phase spans
		// may appear — the engine inside Run is not instrumented.
		add(fmt.Sprintf("run/seed%d/observed", seed), func(t *testing.T, g *golden) {
			o := obs.New("run", nil)
			for _, kind := range Kinds() {
				s := scenario(t)
				s.Timesteps = 3
				s.Obs = o
				if _, err := Run(s, kind); err != nil {
					t.Fatal(err)
				}
			}
			g.observed(t, o)
		})

		for _, steps := range []int{20, 100} {
			steps := steps
			add(fmt.Sprintf("campaign/seed%d/steps%d/bare", seed, steps), func(t *testing.T, g *golden) {
				s := scenario(t)
				s.PostQueueWait = 0
				goldenCampaign(t, g, s, steps)
			})
			add(fmt.Sprintf("campaign/seed%d/steps%d/supervised+observed", seed, steps), func(t *testing.T, g *golden) {
				s := scenario(t)
				s.PostQueueWait = 0
				pol := supervise.DefaultPolicy()
				s.Supervise = &pol
				s.Obs = obs.New("campaign", nil)
				goldenCampaign(t, g, s, steps)
			})
			for _, faultSeed := range []int64{5, 7, 9, 12} {
				faultSeed := faultSeed
				add(fmt.Sprintf("campaign/seed%d/steps%d/fault%d", seed, steps, faultSeed), func(t *testing.T, g *golden) {
					s := scenario(t)
					s.PostQueueWait = 0
					s.Faults = goldenWeather(faultSeed)
					s.Degrade = &DegradePolicy{StepBudget: 900, RescueLost: true}
					s.Obs = obs.New("campaign", nil)
					goldenCampaign(t, g, s, steps)
				})
			}
		}

		// ResumableCampaign: scrub + bit rot under 0, 1 (by time) and 2 (by
		// time, then mid-write) injected crashes; the crash-only campaign of
		// TestTornRunProperty; and full weather on top of persistence.
		const steps = 8
		stepDur := 0.0
		crashSchedule := func(t *testing.T, n int) []fault.Crash {
			if stepDur == 0 {
				s := scenario(t)
				s.PostQueueWait = 0
				rep, err := Campaign(s, steps)
				if err != nil {
					t.Fatal(err)
				}
				stepDur = rep.SimWallClock / steps
			}
			return []fault.Crash{{AtTime: 2.5 * stepDur}, {AtStep: steps - 2}}[:n]
		}
		for n := 0; n <= 2; n++ {
			n := n
			add(fmt.Sprintf("resumable/seed%d/rot+scrub/crashes%d", seed, n), func(t *testing.T, g *golden) {
				crashes := crashSchedule(t, n)
				goldenResumable(t, g, func() *Scenario {
					s := scenario(t)
					s.PostQueueWait = 0
					s.Faults = &fault.Profile{Seed: seed, Crashes: crashes,
						BitRotProb: 0.5, BitRotDelaySecMin: 10, BitRotDelaySecMax: 1500}
					s.Scrub = &ScrubPolicy{Interval: 250, Batch: 3}
					return s
				}, steps, seed)
			})
		}
		add(fmt.Sprintf("resumable/seed%d/plain/crashes2", seed), func(t *testing.T, g *golden) {
			crashes := crashSchedule(t, 2)
			goldenResumable(t, g, func() *Scenario {
				s := scenario(t)
				s.PostQueueWait = 0
				s.Faults = &fault.Profile{Crashes: crashes}
				return s
			}, steps, seed)
		})
		add(fmt.Sprintf("resumable/seed%d/weather/crashes2", seed), func(t *testing.T, g *golden) {
			crashes := crashSchedule(t, 2)
			goldenResumable(t, g, func() *Scenario {
				s := scenario(t)
				s.PostQueueWait = 0
				p := goldenWeather(seed + 20)
				p.WriteFailProb, p.WriteTruncateProb = 0, 0
				p.BitRotProb = 0.5
				p.Crashes = crashes
				s.Faults = p
				s.Scrub = &ScrubPolicy{}
				s.Obs = obs.New("campaign", nil)
				return s
			}, steps, seed)
		})
	}
	return cases
}

// digests runs one case and returns the hex sha256 of its full and masked
// bytes, the two columns of a golden file line.
func (c goldenCase) digests(t *testing.T) string {
	var g golden
	c.run(t, &g)
	full, masked := sha256.Sum256(g.full.Bytes()), sha256.Sum256(g.masked.Bytes())
	return hex.EncodeToString(full[:]) + " " + hex.EncodeToString(masked[:])
}

// TestEngineGolden holds the co-scheduled engine to the bytes its parent
// produced: every Report, CampaignReport, decision log, scrub log, trace,
// span tree, metrics dump, cost table and persisted product, per seed.
// Each golden line is "name full masked" (see golden).
func TestEngineGolden(t *testing.T) {
	cases := goldenCases(t)
	if *updateGolden {
		var buf bytes.Buffer
		for _, c := range cases {
			fmt.Fprintf(&buf, "%s %s\n", c.name, c.digests(t))
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := ckpt.WriteFileAtomic(goldenFile, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, sums, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = sums
	}
	if len(want) != len(cases) {
		t.Fatalf("golden file has %d digests, the test has %d cases", len(want), len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if got := c.digests(t); got != want[c.name] {
				t.Errorf("digests (full masked) %s, parent commit produced %s", got, want[c.name])
			}
		})
	}
}
