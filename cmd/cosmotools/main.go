// Command cosmotools is the stand-alone analysis driver: the same
// algorithms HACC invokes in-situ, run off-line over stored particle data
// — "CosmoTools also provides a stand-alone driver that allows the
// algorithms to be invoked asynchronously by co-scheduling another
// analysis run" (§3.1).
//
// It reads a gio particle file (Level 1 snapshot or Level 2 extraction),
// runs the configured analyses, and writes Level 3 products next to the
// input. The co-scheduling listener (cmd/listener) templates invocations
// of this tool.
//
// Usage:
//
//	cosmotools -in out/step030.gio -box 64 [-config ct.ini]
//	cosmotools -in out/step030.l2.gio -box 64 -np 32 -mode centers
//
// Modes:
//
//	full     the standard tools over a full-box snapshot: P(k), halo finding
//	         + centers (+ SO, subhalos, halo properties via config)
//	centers  MBP centers only over a Level 2 file (one block per large
//	         halo); needs -np, the simulation's particles per dimension
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/center"
	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/gio"
	"repro/internal/halo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmotools: ")
	var (
		inPath  = flag.String("in", "", "input gio particle file (required)")
		box     = flag.Float64("box", 64, "box side, Mpc/h")
		np      = flag.Int("np", 0, "original particles per dimension (for particle mass); 0 derives it from a full-box input's count, -mode centers requires it")
		cfgPath = flag.String("config", "", "CosmoTools config (INI)")
		mode    = flag.String("mode", "full", "full | centers")
		outPath = flag.String("out", "", "output path (default: input + .centers)")
	)
	flag.Parse()
	if *inPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*inPath, *outPath, *box, *np, *cfgPath, *mode); err != nil {
		log.Fatal(err)
	}
}

func run(inPath, outPath string, box float64, np int, cfgPath, mode string) error {
	blocks, err := gio.ReadFile(inPath)
	if err != nil {
		return err
	}
	if outPath == "" {
		outPath = strings.TrimSuffix(inPath, ".gio") + ".centers"
	}
	merged := gio.Merge(blocks)
	log.Printf("read %d particles in %d blocks from %s", merged.N(), len(blocks), inPath)
	if np == 0 {
		// Only a full-box snapshot tells the particle load; a Level 2
		// file holds the large halos alone.
		if mode == "centers" {
			return fmt.Errorf("-mode centers needs -np: a Level 2 file does not hold the full box, so the particle mass cannot be derived from its particle count")
		}
		np = int(math.Round(math.Cbrt(float64(merged.N()))))
	}
	mass := cosmo.Default().ParticleMass(box, np)

	start := time.Now()
	var centers []cosmotools.CenterRecord
	switch mode {
	case "full":
		var cfg *cosmotools.Config
		if cfgPath != "" {
			if cfg, err = cosmotools.ParseConfigFile(cfgPath); err != nil {
				return err
			}
		}
		manager, err := cosmotools.NewStandardManager(cfg, box, np, np)
		if err != nil {
			return err
		}
		ctx := cosmotools.NewContext(1, 1, box, mass, merged)
		if err := manager.Execute(ctx); err != nil {
			return err
		}
		var ran bool
		if centers, ran = ctx.Outputs["halofinder/centers"].([]cosmotools.CenterRecord); !ran {
			return fmt.Errorf("halofinder did not run: the input is analysed as step 1, which %s does not schedule", cfgPath)
		}
		if cat, ok := ctx.Outputs["halofinder/catalog"].(*halo.Catalog); ok {
			log.Printf("found %d halos (largest %d particles)", len(cat.Halos), cat.LargestCount())
		}
	case "centers":
		l2, err := cosmotools.Level2FromBlocks(blocks)
		if err != nil {
			return err
		}
		if centers, err = cosmotools.CentersForLevel2(l2, box, center.Options{Mass: mass, Softening: 1e-3}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	log.Printf("analysis took %.2fs", time.Since(start).Seconds())

	if err := catalog.WriteFile(outPath, centers); err != nil {
		return err
	}
	log.Printf("wrote %d centers to %s", len(centers), outPath)
	return nil
}
