package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/supervise"
)

// campaignScenario is the scenario every campaign in cmd/workflow-sim
// runs: the downscaled 1024³ problem with no modelled queue wait.
func campaignScenario(seed int64) (*core.Scenario, error) {
	s, err := core.DownscaledScenario(seed)
	if err != nil {
		return nil, err
	}
	s.PostQueueWait = 0
	return s, nil
}

// --- campaign_clean ---------------------------------------------------------

type campaignClean struct {
	steps int
	// scen are the supervised scenarios for seeds S..S+n-1; bare the
	// unsupervised, unobserved reports the ops are compared against.
	scen []*core.Scenario
	bare []*core.CampaignReport
	// total is the first supervised TotalWallClock seen per scenario.
	total map[int]float64
}

func setupCampaignClean(e *env) (instance, error) {
	c := &campaignClean{steps: e.size.cleanSteps, total: map[int]float64{}}
	for k := 0; k < e.size.campaignSeeds; k++ {
		s, err := campaignScenario(e.seed + int64(k))
		if err != nil {
			return nil, err
		}
		bare, err := core.Campaign(s, c.steps)
		if err != nil {
			return nil, fmt.Errorf("bare reference campaign: %w", err)
		}
		sup := *s
		pol := supervise.DefaultPolicy()
		sup.Supervise = &pol
		c.scen = append(c.scen, &sup)
		c.bare = append(c.bare, bare)
	}
	return c, nil
}

func (c *campaignClean) inputs() int { return len(c.scen) }

func (c *campaignClean) op(i int, root *ref) (func() (float64, error), error) {
	k := mod(i, len(c.scen))
	sc := *c.scen[k]
	// Fresh observer per campaign, as a real caller traces one campaign
	// per observer.
	sc.Obs = obs.New("campaign", nil)
	sp := root.begin("core.Campaign")
	rep, err := core.Campaign(&sc, c.steps)
	sp.end()
	if err != nil {
		return nil, err
	}
	return func() (float64, error) { return c.check(k, rep, c.bare[k], sc.Obs) }, nil
}

// check holds a supervised, observed, fault-free campaign to the bare
// report. When the simulation ends, the jobs run and the queue depth must
// match exactly. TotalWallClock is compared too and sets ref_dev_pct, but
// does not fail the op: today supervision's trailing watchdog events keep
// the virtual clock running long after the last analysis lands, so the
// supervised report's "all analysis done" reads ~4x the bare one (an open
// finding this benchmark only makes measurable, see README.md). It must
// at least read the same every time.
func (c *campaignClean) check(k int, rep, bare *core.CampaignReport, o *obs.Observer) (float64, error) {
	dev := 100 * relDiff(rep.TotalWallClock, bare.TotalWallClock)
	switch {
	case rep.SimWallClock != bare.SimWallClock || rep.MaxPileUp != bare.MaxPileUp ||
		rep.OverlapFraction != bare.OverlapFraction:
		return 100, fmt.Errorf("supervised campaign: sim end %v, pile-up %d, overlap %v; bare: %v, %d, %v",
			rep.SimWallClock, rep.MaxPileUp, rep.OverlapFraction,
			bare.SimWallClock, bare.MaxPileUp, bare.OverlapFraction)
	case rep.AnalysisJobs != c.steps || bare.AnalysisJobs != c.steps:
		return 100, fmt.Errorf("%d analysis jobs (bare %d) for %d steps", rep.AnalysisJobs, bare.AnalysisJobs, c.steps)
	case rep.Resilience.HedgesLaunched != 0:
		return dev, fmt.Errorf("fault-free campaign launched %d hedges", rep.Resilience.HedgesLaunched)
	case len(o.Spans()) < 2*c.steps+1:
		return dev, fmt.Errorf("observer recorded %d spans, want >= %d", len(o.Spans()), 2*c.steps+1)
	}
	if first, seen := c.total[k]; seen && first != rep.TotalWallClock {
		return 100, fmt.Errorf("supervised campaign finished at %v, first run of this scenario at %v", rep.TotalWallClock, first)
	}
	c.total[k] = rep.TotalWallClock
	return dev, nil
}

// --- campaign_recover -------------------------------------------------------

// recoverProfile is the weather a campaign_recover op runs under:
// cmd/workflow-sim's fail-stop profile (-resilience) and gray profile
// (-gray defaults), bit rot at 0.5 per product, and two scheduled process
// kills — one mid-campaign by clock, one mid-write of a late step, which
// leaves a torn Level 2 file for the reconcile pass.
//
// Two fault classes of those profiles are left at zero because today's
// engine does not survive them on every seed (open findings, README.md):
// a write fault on the final step's Level 2 file loses that step's
// analysis and the merge then fails (~10 % of fault seeds), and a stalled
// attempt (JobStallProb 0.2) leaves ~1 % of fault seeds spinning the
// engine without end. A workload must be one on which no op fails.
func recoverProfile(faultSeed int64, steps int, stepInterval float64) *fault.Profile {
	return &fault.Profile{
		Seed:            faultSeed,
		JobFailureProb:  0.25,
		ListenerOutages: []fault.Window{{Start: 600, End: 1200}},
		NodeDrains:      []fault.Drain{{Window: fault.Window{Start: 400, End: 900}, Nodes: 2}},

		JobSlowdownProb:    0.25,
		InSituSlowdownProb: 0.3,
		SubmitFailProb:     0.15,
		TransitDelayProb:   0.2,

		BitRotProb: 0.5,
		Crashes: []fault.Crash{
			{AtTime: stepInterval * float64(steps) / 2},
			{AtStep: 3 * steps / 4},
		},
	}
}

// maxGenerations bounds the resume loop: two scheduled crashes need three
// incarnations; anything past that is a campaign that does not converge.
const maxGenerations = 4

const (
	// weathers is how many fault seeds one campaign_recover op runs
	// through in memory, S+4k .. S+4k+3 for weather pool k: some seeds cost
	// three retries and a hedge, some none, and one op should hold the mix.
	weathers = 4
	// weatherPool is how many distinct ops (pools) there are before the
	// fault seeds repeat. The first fault seed of each pool also goes
	// through the persisted half.
	weatherPool = 4
)

type campaignRecover struct {
	e     *env
	steps int
	scen  *core.Scenario
	dir   string            // parent of the persisted campaign directories
	want  map[string][]byte // fault-free persisted products by relative path
	// first holds the first report digest seen per op input: the same
	// weather must give the same campaign every time.
	first map[int]string
	// afterPersist, when set, runs between a persisted campaign finishing
	// and its products being compared (bench_test.go corrupts one there).
	afterPersist func(dir string) error
}

func setupCampaignRecover(e *env) (instance, error) {
	s, err := campaignScenario(e.seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.workdir, "recover-")
	if err != nil {
		return nil, err
	}
	return &campaignRecover{e: e, steps: e.size.recoverSteps, scen: s, dir: dir, first: map[int]string{}}, nil
}

func (c *campaignRecover) inputs() int { return weatherPool }

func (c *campaignRecover) faulted(faultSeed int64) *core.Scenario {
	sc := *c.scen
	sc.Faults = recoverProfile(faultSeed, c.steps, sc.StepInterval)
	sc.Scrub = &core.ScrubPolicy{}
	return &sc
}

// op is the in-memory half: the campaign under the pool's four fault
// weathers back to back. That is the part of recovery whose time belongs
// to the program: fault draws, retries with backoff, hedged re-execution,
// supervision decisions, degradation and rescue. The persisted half —
// journal, ledger, torn-file reconcile, scrub and repair — runs in finish,
// off the clock: its wall time is the shared disk's fsync latency, which
// swings fivefold between runs of the same code here, and its system CPU
// time follows (README.md).
func (c *campaignRecover) op(i int, root *ref) (func() (float64, error), error) {
	input := mod(i, weatherPool)
	digest := ""
	for k := 0; k < weathers; k++ {
		faultSeed := c.e.seed + int64(input*weathers+k)
		sp := root.begin("core.Campaign")
		rep, err := core.Campaign(c.faulted(faultSeed), c.steps)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("fault seed %d: %w", faultSeed, err)
		}
		if rep.AnalysisJobs != c.steps || rep.Resilience.JobsLost != 0 {
			return nil, fmt.Errorf("fault seed %d: %d of %d analyses done, %d jobs lost",
				faultSeed, rep.AnalysisJobs, c.steps, rep.Resilience.JobsLost)
		}
		digest += fmt.Sprintf("%v %v %+v\n", rep.SimWallClock, rep.TotalWallClock, rep.Resilience)
	}
	return func() (float64, error) {
		if first, seen := c.first[input]; seen && first != digest {
			return 100, fmt.Errorf("weather %d: campaign reports differ from the first run under it", input)
		}
		c.first[input] = digest
		return 0, nil
	}, nil
}

// finish is the persisted half, once per weather pool, after the last
// timed op rather than between ops: the journal commits and write-back a
// persisted campaign leaves behind keep the kernel busy on both processors
// for a while after it returns, and ops timed in that wake read up to 1.7x
// slow.
func (c *campaignRecover) finish() (offClock, float64, error) {
	var off offClock
	if err := c.reference(); err != nil {
		return off, 100, err
	}
	worst, errs := 0.0, []error(nil)
	for k := 0; k < weatherPool; k++ {
		faultSeed := c.e.seed + int64(k*weathers)
		dir := filepath.Join(c.dir, fmt.Sprintf("seed%d", faultSeed))
		dev, err := c.recoverAndCompare(faultSeed, dir, &off)
		if dev > worst {
			worst = dev
		}
		errs = append(errs, err, os.RemoveAll(dir))
	}
	return off, worst, errors.Join(errs...)
}

// reference persists the crash-free, fault-free campaign and keeps its
// products in memory.
func (c *campaignRecover) reference() error {
	if c.want != nil {
		return nil
	}
	refDir := filepath.Join(c.dir, "reference")
	if _, err := core.ResumableCampaign(c.scen, c.steps, refDir, c.e.seed); err != nil {
		return fmt.Errorf("fault-free reference campaign: %w", err)
	}
	want, err := readProducts(refDir)
	if err != nil {
		return err
	}
	if len(want) != 2*c.steps+1 {
		return fmt.Errorf("reference campaign left %d products, want %d", len(want), 2*c.steps+1)
	}
	c.want = want
	return os.RemoveAll(refDir)
}

// recoverAndCompare takes one fault seed through the operator's path: a
// persisted campaign, killed twice, re-invoked until it completes, whose
// products must match the reference byte for byte. The engine's
// allocations — not the comparison's — are added to off.
func (c *campaignRecover) recoverAndCompare(faultSeed int64, dir string, off *offClock) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := c.runToCompletion(c.faulted(faultSeed), dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 100, err
	}
	off.halves++
	off.mallocs += after.Mallocs - before.Mallocs
	off.bytes += after.TotalAlloc - before.TotalAlloc
	if c.afterPersist != nil {
		if err := c.afterPersist(dir); err != nil {
			return 100, err
		}
	}
	got, err := readProducts(dir)
	if err != nil {
		return 100, err
	}
	dev := 100 * differingShare(c.want, got)
	switch {
	case dev > 0:
		return dev, fmt.Errorf("fault seed %d: %.3g%% of product bytes differ from the fault-free campaign", faultSeed, dev)
	case rep.Resume.Generation != 2:
		return dev, fmt.Errorf("fault seed %d: finished in generation %d, want 2 (two scheduled crashes)", faultSeed, rep.Resume.Generation)
	case rep.Integrity.Escalated != 0:
		return dev, fmt.Errorf("fault seed %d: %d products escalated past repair", faultSeed, rep.Integrity.Escalated)
	}
	return dev, nil
}

// runToCompletion re-invokes the persisted campaign on dir until it
// survives its crash schedule, as an operator would re-run
// `workflow-sim -resume`.
func (c *campaignRecover) runToCompletion(sc *core.Scenario, dir string) (*core.CampaignReport, error) {
	for gen := 0; gen < maxGenerations; gen++ {
		rep, err := core.ResumableCampaign(sc, c.steps, dir, c.e.seed)
		if errors.Is(err, core.ErrCampaignCrashed) {
			continue
		}
		return rep, err
	}
	return nil, fmt.Errorf("campaign still crashing after %d generations", maxGenerations)
}

// readProducts loads a persisted campaign's products — l2/, centers/ and
// catalog.txt — keyed by slash-separated relative path. Journal, ledger,
// temp and quarantine files are bookkeeping, not products.
func readProducts(dir string) (map[string][]byte, error) {
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		product := rel == "catalog.txt" ||
			(strings.HasPrefix(rel, "l2/") && strings.HasSuffix(rel, ".gio")) ||
			(strings.HasPrefix(rel, "centers/") && strings.HasSuffix(rel, ".centers"))
		if !product {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[rel] = data
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reading products under %s: %w", dir, err)
	}
	return out, nil
}

// differingShare is the fraction of the reference's bytes that got does
// not reproduce: a missing or differently sized product counts whole, a
// same-sized one by its differing bytes; an unexpected extra product
// counts whole as well.
func differingShare(want, got map[string][]byte) float64 {
	total, bad := 0, 0
	for rel, w := range want {
		total += len(w)
		g, ok := got[rel]
		switch {
		case !ok || len(g) != len(w):
			bad += len(w)
		case !bytes.Equal(g, w):
			for k := range w {
				if g[k] != w[k] {
					bad++
				}
			}
		}
	}
	for rel, g := range got {
		if _, ok := want[rel]; !ok {
			total += len(g)
			bad += len(g)
		}
	}
	if total == 0 {
		return 1
	}
	return float64(bad) / float64(total)
}
