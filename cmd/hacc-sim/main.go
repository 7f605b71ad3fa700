// Command hacc-sim runs the particle-mesh cosmology simulation with
// CosmoTools in-situ analysis, reproducing the paper's simulation-side
// set-up: "The simulation 'input deck' contains all the simulation
// parameters for the main run. It also includes a trigger for CosmoTools
// and a pointer to the CosmoTools configuration file" (§3).
//
// Usage:
//
//	hacc-sim -deck input.deck
//	hacc-sim -np 32 -steps 20 -out ./run    (deckless quick run)
//
// Outputs per analysis step, in the output directory:
//
//	stepNNN.gio        Level 1 snapshot (when snapshot_every triggers)
//	stepNNN.l2.gio     Level 2 (particles of halos above the split)
//	stepNNN.centers    Level 3 halo centers (text)
//	stepNNN.done       marker file the co-scheduling listener watches
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/catalog"
	"repro/internal/ckpt"
	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/gio"
	"repro/internal/ic"
	"repro/internal/nbody"
	"repro/internal/render"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hacc-sim: ")
	var (
		deckPath = flag.String("deck", "", "input deck path (INI; overrides the flags below)")
		np       = flag.Int("np", 32, "particles per dimension (power of two)")
		ng       = flag.Int("ng", 0, "PM grid per dimension (defaults to np)")
		box      = flag.Float64("box", 64, "box side, Mpc/h")
		zInit    = flag.Float64("z-init", 50, "starting redshift")
		zFinal   = flag.Float64("z-final", 0, "final redshift")
		steps    = flag.Int("steps", 20, "time steps")
		seed     = flag.Int64("seed", 1, "initial-conditions seed")
		outDir   = flag.String("out", "hacc-out", "output directory")
		ctConfig = flag.String("cosmotools", "", "CosmoTools config path (empty: built-in defaults)")
		snapshot = flag.Int("snapshot-every", 0, "write Level 1 snapshots every N steps (0: never)")
		analyze  = flag.Int("analyze-every", 0, "run analysis every N steps (0: final step only)")
		renderPx = flag.Int("render", 0, "write a Figure 2-style density projection PNG of the final step at this pixel size (0: off)")
		ckptEvry = flag.Int("checkpoint-every", 0, "write full-precision checkpoints every N steps (0: never)")
		restart  = flag.String("restart-from", "", "resume from a checkpoint file instead of generating initial conditions; the run continues the checkpoint's own schedule and step numbering, bit-identical to an uninterrupted run")
	)
	flag.Var(aliasValue{flag.Lookup("restart-from")}, "restart", "deprecated alias for -restart-from")
	flag.Parse()
	cfg := runConfig{
		NP: *np, NG: *ng, Box: *box, ZInit: *zInit, ZFinal: *zFinal,
		Steps: *steps, Seed: *seed, OutDir: *outDir, CTConfig: *ctConfig,
		SnapshotEvery: *snapshot, AnalyzeEvery: *analyze, RenderPixels: *renderPx,
		CheckpointEvery: *ckptEvry, Restart: *restart,
	}
	if *deckPath != "" {
		if err := cfg.loadDeck(*deckPath); err != nil {
			log.Fatalf("reading deck: %v", err)
		}
	}
	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

// aliasValue forwards a deprecated flag name onto its replacement.
type aliasValue struct{ target *flag.Flag }

func (a aliasValue) String() string {
	if a.target == nil {
		return ""
	}
	return a.target.Value.String()
}
func (a aliasValue) Set(v string) error { return a.target.Value.Set(v) }

type runConfig struct {
	NP, NG          int
	Box             float64
	ZInit, ZFinal   float64
	Steps           int
	Seed            int64
	OutDir          string
	CTConfig        string
	SnapshotEvery   int
	AnalyzeEvery    int
	RenderPixels    int
	CheckpointEvery int
	Restart         string
}

// loadDeck reads [simulation] and [cosmotools] sections of an input deck.
func (c *runConfig) loadDeck(path string) error {
	cfg, err := cosmotools.ParseConfigFile(path)
	if err != nil {
		return err
	}
	sim := cfg.Section("simulation")
	setInt := func(dst *int, key string) error {
		if v, ok := sim[key]; ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("deck %s=%q: %w", key, v, err)
			}
			*dst = n
		}
		return nil
	}
	setFloat := func(dst *float64, key string) error {
		if v, ok := sim[key]; ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("deck %s=%q: %w", key, v, err)
			}
			*dst = f
		}
		return nil
	}
	for _, step := range []error{
		setInt(&c.NP, "np"), setInt(&c.NG, "ng"), setInt(&c.Steps, "steps"),
		setInt(&c.SnapshotEvery, "snapshot_every"), setInt(&c.AnalyzeEvery, "analyze_every"),
		setFloat(&c.Box, "box"), setFloat(&c.ZInit, "z_init"), setFloat(&c.ZFinal, "z_final"),
	} {
		if step != nil {
			return step
		}
	}
	if v, ok := sim["seed"]; ok {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("deck seed=%q: %w", v, err)
		}
		c.Seed = n
	}
	if v, ok := sim["output_dir"]; ok {
		c.OutDir = v
	}
	ct := cfg.Section("cosmotools")
	if v, ok := ct["config"]; ok {
		c.CTConfig = v
	}
	if v, ok := ct["enabled"]; ok {
		enabled, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("deck cosmotools enabled=%q: %w", v, err)
		}
		if !enabled {
			c.CTConfig = "-"
		}
	}
	return nil
}

func run(cfg runConfig) error {
	if cfg.NG <= 0 {
		cfg.NG = cfg.NP
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	params := cosmo.Default()
	var sim *nbody.Simulation
	if cfg.Restart != "" {
		var err error
		sim, err = gio.LoadCheckpointFile(cfg.Restart)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		// Honour the checkpoint's own geometry, cosmology and schedule:
		// the restarted run continues the original integration plan so it
		// is bit-identical to one that never stopped.
		cfg.Box = sim.Box
		cfg.NG = sim.NG
		cfg.Steps = sim.Sched.TotalSteps
		cfg.Seed = sim.Seed
		params = sim.Cosmo
		log.Printf("restarted from %s at z=%.2f, step %d/%d (%d particles, IC seed %d)",
			cfg.Restart, sim.Redshift(), sim.StepIndex, sim.Sched.TotalSteps, sim.P.N(), sim.Seed)
	} else {
		log.Printf("generating %d^3 Zel'dovich ICs in a %.1f Mpc/h box at z=%.1f (seed %d)",
			cfg.NP, cfg.Box, cfg.ZInit, cfg.Seed)
		particles, a0, err := ic.Generate(params, ic.Options{
			NP: cfg.NP, Box: cfg.Box, ZInit: cfg.ZInit, Seed: cfg.Seed,
		})
		if err != nil {
			return err
		}
		sim, err = nbody.NewSimulation(params, cfg.Box, cfg.NG, particles, a0)
		if err != nil {
			return err
		}
		sim.Seed = cfg.Seed
	}
	// NP for particle-mass purposes: on restart, recover it from the
	// checkpointed particle count rather than trusting the flag.
	if cfg.Restart != "" {
		cfg.NP = int(math.Round(math.Cbrt(float64(sim.P.N()))))
	}

	// CosmoTools set-up: the standard tools, configured from the config
	// file or, without one, from defaults scaled to the box.
	var manager *cosmotools.Manager
	disabled := cfg.CTConfig == "-"
	if !disabled {
		var ctCfg *cosmotools.Config
		var err error
		if cfg.CTConfig != "" {
			if ctCfg, err = cosmotools.ParseConfigFile(cfg.CTConfig); err != nil {
				return fmt.Errorf("cosmotools config: %w", err)
			}
		}
		if manager, err = cosmotools.NewStandardManager(ctCfg, cfg.Box, cfg.NP, cfg.NG); err != nil {
			return err
		}
	}

	mass := params.ParticleMass(cfg.Box, cfg.NP)
	start := time.Now()
	cb := func(step int) error {
		final := step == cfg.Steps
		if cfg.SnapshotEvery > 0 && step%cfg.SnapshotEvery == 0 {
			path := filepath.Join(cfg.OutDir, fmt.Sprintf("step%03d.gio", step))
			if err := gio.WriteFile(path, []gio.Block{{Rank: 0, Particles: sim.P}}); err != nil {
				return err
			}
			log.Printf("step %3d (z=%.2f): wrote Level 1 snapshot %s", step, sim.Redshift(), path)
		}
		if cfg.CheckpointEvery > 0 && step%cfg.CheckpointEvery == 0 {
			path := filepath.Join(cfg.OutDir, fmt.Sprintf("ckpt%03d.bin", step))
			if err := gio.SaveCheckpointFile(path, sim); err != nil {
				return err
			}
			log.Printf("step %3d: wrote checkpoint %s", step, path)
		}
		analyze := final || (cfg.AnalyzeEvery > 0 && step%cfg.AnalyzeEvery == 0)
		if !analyze || disabled {
			return nil
		}
		ctx := cosmotools.NewContext(step, sim.A, cfg.Box, mass, sim.P)
		if err := manager.Execute(ctx); err != nil {
			return err
		}
		return writeProducts(cfg.OutDir, step, ctx)
	}
	var err error
	if cfg.Restart != "" {
		// Continue the checkpoint's pinned schedule: remaining steps only,
		// with absolute step numbering so outputs line up with the
		// original run's.
		log.Printf("resuming %d remaining steps (particle mass %.3g Msun/h)",
			sim.Sched.TotalSteps-sim.StepIndex, mass)
		err = sim.Resume(cb)
	} else {
		aEnd := cosmo.ScaleFactor(cfg.ZFinal)
		log.Printf("evolving to z=%.2f in %d steps (particle mass %.3g Msun/h)", cfg.ZFinal, cfg.Steps, mass)
		err = sim.Run(aEnd, cfg.Steps, cb)
	}
	if err != nil {
		return err
	}
	if cfg.RenderPixels > 0 {
		path := filepath.Join(cfg.OutDir, "final.png")
		var png bytes.Buffer
		if err := render.WritePNG(&png, sim.P, cfg.Box, render.Options{Pixels: cfg.RenderPixels, Axis: 2, Gamma: 0.8}); err != nil {
			return err
		}
		if err := ckpt.WriteFileAtomic(path, png.Bytes()); err != nil {
			return err
		}
		log.Printf("wrote density projection to %s", path)
	}
	log.Printf("run complete in %.1fs", time.Since(start).Seconds())
	return nil
}

// writeProducts lands the analysis outputs plus the listener marker.
func writeProducts(outDir string, step int, ctx *cosmotools.Context) error {
	if l2Any, ok := ctx.Outputs["halofinder/level2"]; ok {
		l2 := l2Any.(*cosmotools.Level2)
		if len(l2.Spans) > 0 {
			path := filepath.Join(outDir, fmt.Sprintf("step%03d.l2.gio", step))
			if err := gio.WriteFile(path, l2.Blocks()); err != nil {
				return err
			}
			log.Printf("step %3d: wrote Level 2 (%d particles in %d large halos) to %s",
				step, l2.Particles.N(), len(l2.Spans), path)
		}
	}
	if centersAny, ok := ctx.Outputs["halofinder/centers"]; ok {
		centers := centersAny.([]cosmotools.CenterRecord)
		path := filepath.Join(outDir, fmt.Sprintf("step%03d.centers", step))
		if err := catalog.WriteFile(path, centers); err != nil {
			return err
		}
		log.Printf("step %3d: wrote %d Level 3 centers to %s", step, len(centers), path)
	}
	// The marker must appear only after the products above are durable —
	// the listener treats it (and the .l2.gio itself) as a submission
	// trigger, so it gets the same atomic commit.
	marker := filepath.Join(outDir, fmt.Sprintf("step%03d.done", step))
	return ckpt.WriteFileAtomic(marker, []byte(fmt.Sprintf("%d\n", step)))
}
