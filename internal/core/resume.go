package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/catalog"
	"repro/internal/ckpt"
	"repro/internal/cosmotools"
	"repro/internal/gio"
	"repro/internal/integrity"
	"repro/internal/nbody"
	"repro/internal/sched"
)

// ErrCampaignCrashed reports that a ResumableCampaign run was killed by an
// injected process crash (fault.Crash). The journal under the campaign
// directory holds every product committed before the kill; calling
// ResumableCampaign again on the same directory resumes from it.
var ErrCampaignCrashed = errors.New("core: campaign crashed mid-run (run again to resume)")

// ResumeStats accounts one incarnation's checkpoint/restart activity. All
// fields are zero on a fresh run, keeping the report DeepEqual-comparable
// to a plain Campaign.
type ResumeStats struct {
	// Generation is how many prior incarnations the journal recorded (0 on
	// a fresh run).
	Generation int
	// StepsSkipped and PostsSkipped count journaled work units this
	// incarnation did not redo.
	StepsSkipped, PostsSkipped int
	// TornFiles counts on-disk files found without a journal record — the
	// signature of a crash between write and commit; they are removed and
	// their work redone. SalvagedBlocks counts intact gio blocks recovered
	// from torn Level 2 files before removal (diagnostics only; the redo
	// regenerates them bit-identically).
	TornFiles, SalvagedBlocks int
}

func centersRelPath(step int) string { return fmt.Sprintf("centers/step%03d.centers", step) }

// product describes one persisted campaign product: its journal record
// (kind, step, path), its lineage (producer name, input paths) and the
// pure generator of its bytes.
type product struct {
	rec      ckpt.Record
	producer string
	inputs   []string
	gen      func(seed int64) []byte
}

func l2File(step int) product {
	return product{ckpt.Record{Kind: ckpt.KindStep, Step: step, Path: l2Path(step)}, "sim-step", nil,
		func(seed int64) []byte { return l2Product(seed, step) }}
}

func centersFile(step int) product {
	return product{ckpt.Record{Kind: ckpt.KindPost, Step: step, Path: centersRelPath(step)}, "post-step",
		[]string{l2Path(step)}, func(seed int64) []byte { return centersCatalog(seed, step, step) }}
}

func mergedCatalog(timesteps int) product {
	inputs := make([]string, timesteps)
	for i := range inputs {
		inputs[i] = centersRelPath(i + 1)
	}
	return product{ckpt.Record{Kind: ckpt.KindMerge, Path: "catalog.txt"}, "merge", inputs,
		func(seed int64) []byte { return centersCatalog(seed, 1, timesteps) }}
}

// lineage is the product's ledger record for the given content.
func (p product) lineage(seed int64, data []byte) integrity.Product {
	return integrity.Product{Path: p.rec.Path, Bytes: int64(len(data)), Sum: integrity.Sum(data),
		Step: p.rec.Step, Producer: p.producer, Inputs: p.inputs, Params: fmt.Sprintf("seed=%d", seed)}
}

// ResumableCampaign runs Campaign with crash-consistent persistence: every
// delivered product (per-step Level 2 particle files, per-step center
// catalogs, the final merged catalog) is committed atomically under outDir
// and journaled in outDir/journal.wal. If the process dies — for real, or
// through a fault.Crash in the scenario's profile — re-running with the
// same arguments replays the journal, reconciles the directory (stale
// temps removed, torn unjournaled files salvage-counted and redone,
// journaled files verified by size and CRC32), restores surviving files
// into the modelled storage, requeues analyses that never completed, and
// continues from the first unfinished step.
//
// Product content is a pure function of (seed, step), so a campaign that
// crashed and resumed any number of times converges to byte-identical
// products vs an uninterrupted run. seed is recorded in the journal's meta
// record alongside the scenario name, horizon and fault seed; resuming
// under different parameters is refused.
func ResumableCampaign(s *Scenario, timesteps int, outDir string, seed int64) (rep *CampaignReport, err error) {
	e, err := newCampaignEngine(s, timesteps)
	if err != nil {
		return nil, err
	}
	for _, sub := range []string{"l2", "centers"} {
		if err := os.MkdirAll(filepath.Join(outDir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	j, records, err := ckpt.Open(filepath.Join(outDir, "journal.wal"))
	if err != nil {
		return nil, err
	}
	// A close failure after fsync'd appends cannot lose records, but a
	// silently dropped error would mask a sick filesystem mid-campaign.
	closeInto := func(c io.Closer) {
		if cerr := c.Close(); cerr != nil && err == nil {
			rep, err = nil, cerr
		}
	}
	defer closeInto(j)
	m := ckpt.Replay(records)
	var faultSeed int64
	if s.Faults != nil {
		faultSeed = s.Faults.Seed
	}
	if err := m.CheckMeta(s.Name, timesteps, seed, faultSeed); err != nil {
		return nil, err
	}
	if m.Meta == nil {
		if err := j.Append(ckpt.Record{Kind: ckpt.KindMeta, Name: s.Name,
			Timesteps: timesteps, Seed: seed, FaultSeed: faultSeed}); err != nil {
			return nil, err
		}
	}
	journaled := committed(m, timesteps)
	// The integrity layer: a content-addressed lineage ledger beside the
	// journal, plus a scrubber that repairs checksum mismatches by
	// re-running only the producing step. Active when the profile injects
	// bit rot or the scenario co-schedules scrubbing.
	var led *integrity.Ledger
	var scr *integrity.Scrubber
	if s.Scrub != nil || (s.Faults != nil && s.Faults.BitRotProb > 0) {
		led, err = integrity.OpenLedger(filepath.Join(outDir, "lineage.wal"))
		if err != nil {
			return nil, err
		}
		defer closeInto(led)
		// Journaled products from pre-ledger incarnations get a lineage
		// record. The expected content is regenerated from the seed — never
		// read back from disk, which may have rotted in the meantime — so a
		// backfilled record carries the true fault-free content address.
		for _, p := range journaled {
			if _, ok := led.Lookup(p.rec.Path); ok {
				continue
			}
			if err := led.Append(p.lineage(seed, p.gen(seed))); err != nil {
				return nil, err
			}
		}
		// Repair re-derives a product from its lineage record alone: every
		// product is a pure function of the seed, found by producer name.
		scr = &integrity.Scrubber{Dir: outDir, Ledger: led, Rederive: func(lp integrity.Product) ([]byte, error) {
			for _, p := range []product{l2File(lp.Step), centersFile(lp.Step), mergedCatalog(len(lp.Inputs))} {
				if p.producer == lp.Producer {
					return p.gen(seed), nil
				}
			}
			return nil, fmt.Errorf("core: no re-derivation for producer %q (%s)", lp.Producer, lp.Path)
		}}
	}

	stats := ResumeStats{Generation: m.Generation}
	if err := reconcileDir(outDir, journaled, &stats, scr); err != nil {
		return nil, err
	}

	// Surviving Level 2 files reappear in the modelled storage; those whose
	// analysis never completed are requeued by the listener's first sweep.
	done := m.CompletedSteps()
	if done > timesteps {
		done = timesteps
	}
	stats.StepsSkipped = done
	for step := 1; step <= done; step++ {
		e.storage.Restore(l2Path(step), e.ph.levels.Level2Bytes, step)
		if _, ok := m.Posts[step]; ok {
			e.listener.MarkSeen(l2Path(step))
			stats.PostsSkipped++
		}
	}

	// This incarnation's injected kill, drawn positionally by generation,
	// then the incarnation itself goes on record.
	crash, _ := e.inj.CrashFor(m.Generation)
	if err := j.Append(ckpt.Record{Kind: ckpt.KindRun, Name: fmt.Sprintf("gen-%d", m.Generation)}); err != nil {
		return nil, err
	}

	// Bit rot fires on the engine's clock against the real product files;
	// the same clock timestamps scrub decisions. Products surviving from
	// earlier incarnations rot too: each generation draws fresh,
	// (path, generation)-keyed rot for them.
	scheduleRot := func(rel string) {
		delay, frac, rot := e.inj.BitRot(rel, m.Generation)
		if !rot {
			return
		}
		e.sim.After(delay, func() {
			if integrity.CorruptFile(filepath.Join(outDir, rel), frac) == nil {
				e.storage.Corrupt(rel)
			}
		})
	}
	if scr != nil {
		scr.Now = e.sim.Now
		scr.Obs = s.Obs
		for _, p := range led.Products() {
			scheduleRot(p.Path)
		}
	}
	// commit makes one product durable: atomic file + journal record, then
	// (under the integrity layer) its lineage record.
	commit := func(p product, data []byte) error {
		if _, err := j.Commit(p.rec, outDir, data); err != nil || led == nil {
			return err
		}
		return led.Append(p.lineage(seed, data))
	}
	// The persistence callbacks report a failure, or the injected kill, by
	// aborting the engine: the clock stops and run returns the error.
	commitStep := func(p product) {
		if err := commit(p, p.gen(seed)); err != nil {
			e.abort(err)
			return
		}
		scheduleRot(p.rec.Path)
	}
	e.onLanded = func(step int) {
		if crash.AtStep == step {
			// The kill strikes mid-write: a torn prefix lands non-atomically
			// with no journal record — the worst case reconcile cleans up.
			data := l2Product(seed, step)
			//lint:allow atomicwrite deliberate torn write: fault injection exercising the reconcile path
			_ = os.WriteFile(filepath.Join(outDir, l2Path(step)), data[:len(data)*3/5], 0o644)
			e.abort(ErrCampaignCrashed)
			return
		}
		commitStep(l2File(step))
	}
	e.onPostDone = func(step int) { commitStep(centersFile(step)) }

	// The background scrubber rides the co-scheduling allocation: small
	// periodic jobs on the analysis cluster re-verify committed products
	// until the simulation job ends; the final full sweep covers the rest.
	scrubJobs, scrubsDone := 0, 0
	if s.Scrub != nil {
		pol := s.Scrub.withDefaults()
		scr.OnGiveUp = func(p integrity.Product) {
			e.sup.Note(p.Path, "integrity-give-up", "corrupt product could not be re-derived; escalating")
		}
		var tick func()
		tick = func() {
			if e.simDone {
				return
			}
			scrubJobs++
			job := &sched.Job{Name: fmt.Sprintf("scrub-%03d", scrubJobs), Nodes: pol.Nodes, Duration: pol.JobSeconds}
			job.OnComplete = func(*sched.Job) {
				scrubsDone++
				scr.Stats.ScrubJobs++
				scr.SweepNext(pol.Batch)
			}
			if e.postCluster.Submit(job) == nil {
				e.sim.After(pol.Interval, tick)
			}
		}
		e.sim.After(pol.Interval, tick)
	}

	if err := e.run(done+1, timesteps, crash.AtTime); err != nil {
		return nil, err
	}
	rep = e.campaignReport()
	rep.AnalysisJobs -= scrubsDone // scrub jobs share the cluster but are not analysis

	// Every analysis landed: commit the merged catalog ("the two files ...
	// were merged to provide a complete set of halo centers", §4.1). The
	// merge inputs may have rotted since their commit, so under the
	// integrity layer each one is verified (and repaired) first — a merge
	// must never bake corruption into the Level 3 product.
	if m.Merge == nil {
		cat := mergedCatalog(timesteps)
		paths := make([]string, timesteps)
		for i, rel := range cat.inputs {
			if scr != nil {
				if p, ok := led.Lookup(rel); ok {
					scr.CheckRepair(p)
				}
			}
			paths[i] = filepath.Join(outDir, rel)
		}
		merged, err := catalog.MergeFiles(paths)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := catalog.Write(&buf, merged); err != nil {
			return nil, err
		}
		if err := commit(cat, buf.Bytes()); err != nil {
			return nil, err
		}
		// The merged catalog rots too; the clock has stopped, so an armed
		// rot fires immediately and the final sweep below repairs it.
		if _, frac, rot := e.inj.BitRot("catalog.txt", m.Generation); rot {
			_ = integrity.CorruptFile(filepath.Join(outDir, "catalog.txt"), frac)
		}
	}
	if scr != nil {
		// Final full pass in commit order: rot that landed after the last
		// scrub window is repaired here, so a finished campaign converges
		// to a clean, fault-free-identical product set.
		scr.SweepAll()
		rep.Integrity = scr.Stats
		rep.ScrubDecisions = scr.Decisions()
	}
	rep.Resume = stats
	return rep, nil
}

// committed lists the manifest's journaled products, each carrying its
// journaled record, in the deterministic order every pass over them uses —
// steps ascending, posts ascending, merge last — so two reconciles of the
// same directory verify, repair and backfill in the same order and log
// identical decisions.
func committed(m *ckpt.Manifest, timesteps int) []product {
	out := make([]product, 0, len(m.Steps)+len(m.Posts)+1)
	add := func(p product, rec ckpt.Record) {
		p.rec = rec
		out = append(out, p)
	}
	for step := 1; step <= timesteps; step++ {
		if rec, ok := m.Steps[step]; ok {
			add(l2File(step), rec)
		}
	}
	for step := 1; step <= timesteps; step++ {
		if rec, ok := m.Posts[step]; ok {
			add(centersFile(step), rec)
		}
	}
	if m.Merge != nil {
		add(mergedCatalog(timesteps), *m.Merge)
	}
	return out
}

// reconcileDir brings the campaign directory back in line with the journal
// after a crash: stale commit temps (and quarantine leftovers) are
// deleted, files without a journal record (a crash struck between write
// and commit) are salvage-counted and removed so their work is redone,
// and journaled files are verified against their recorded size and
// checksum. A checksum mismatch is silent corruption, not a crash
// artifact: with a scrubber attached the file is quarantined and repaired
// from its lineage; without one it is a hard error.
func reconcileDir(outDir string, journaled []product, stats *ResumeStats, scr *integrity.Scrubber) error {
	known := map[string]bool{}
	for _, p := range journaled {
		known[p.rec.Path] = true
	}
	ckpt.RemoveStaleTemps(outDir)
	files := []string{"catalog.txt"}
	for _, sub := range []string{"l2", "centers"} {
		ckpt.RemoveStaleTemps(filepath.Join(outDir, sub))
		entries, err := os.ReadDir(filepath.Join(outDir, sub))
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, sub+"/"+e.Name())
			}
		}
	}
	for _, rel := range files {
		if known[rel] {
			continue
		}
		full := filepath.Join(outDir, rel)
		if filepath.Ext(rel) == ".gio" {
			if blocks, _ := gio.ReadSalvageFile(full); blocks != nil {
				stats.SalvagedBlocks += len(blocks)
			}
		}
		if err := os.Remove(full); errors.Is(err, os.ErrNotExist) {
			continue // no torn merged catalog
		} else if err != nil {
			return err
		}
		stats.TornFiles++
	}
	for _, p := range journaled {
		err := ckpt.VerifyFile(outDir, p.rec)
		if err == nil {
			continue
		}
		if scr != nil && errors.Is(err, ckpt.ErrManifestChecksum) {
			if lp, ok := scr.Ledger.Lookup(p.rec.Path); ok && scr.CheckRepair(lp) {
				continue
			}
		}
		return err
	}
	return nil
}

// l2Product generates a step's Level 2 particle payload (gio format). The
// content is a pure function of (seed, step) — the property that lets a
// crashed-and-resumed campaign converge to byte-identical products no
// matter where the kills struck.
func l2Product(seed int64, step int) []byte {
	rng := rand.New(rand.NewSource(seed<<20 + int64(step)))
	n := 48 + (step*7)%16
	p := nbody.NewParticles(0)
	for i := 0; i < n; i++ {
		p.Append(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100,
			rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(),
			int64(step)*1_000_000+int64(i))
	}
	var buf bytes.Buffer
	if err := gio.Write(&buf, []gio.Block{{Rank: 0, Particles: p}}); err != nil {
		panic(err) // in-memory write cannot fail
	}
	return buf.Bytes()
}

// centersCatalog generates the halo-center catalog of steps first..last
// purely from (seed, step): a single step is that step's analysis product,
// steps 1..n the merged catalog. Halo tags are unique across steps and
// catalog.Write sorts by tag, so the latter equals catalog.MergeFiles over
// the pristine per-step files — which is what lets repair and backfill
// regenerate it without trusting possibly-rotted disk bytes.
func centersCatalog(seed int64, first, last int) []byte {
	var recs []cosmotools.CenterRecord
	for step := first; step <= last; step++ {
		rng := rand.New(rand.NewSource(seed<<20 ^ int64(step)*2654435761))
		for i, n := 0, 3+step%5; i < n; i++ {
			recs = append(recs, cosmotools.CenterRecord{
				HaloTag:   int64(step)*1000 + int64(i),
				MBPTag:    int64(step)*1000 + int64(rng.Intn(900)),
				Pos:       [3]float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100},
				Potential: -1e13 * (1 + rng.Float64()),
				Count:     300_000 + rng.Intn(2_000_000),
			})
		}
	}
	var buf bytes.Buffer
	if err := catalog.Write(&buf, recs); err != nil {
		panic(err) // in-memory write cannot fail
	}
	return buf.Bytes()
}
