// Command listener is the co-scheduling daemon for real directories: the
// reproduction of the Bellerophon-derived script that "is set up to run in
// the background of the main application ... The listener launches
// analysis jobs when pre-specified output files are generated by the main
// application. ... When a new output file is found the listener generates
// a new batch script and input parameters, based on the timestep of the
// data and template files, and then submits the new job. The listener then
// resumes checking for new data." (§3.2)
//
// Instead of PBS batch scripts, jobs here are subprocess invocations of a
// command template; the default analyzes each Level 2 file with the
// stand-alone cosmotools driver.
//
// Usage:
//
//	listener -watch ./hacc-out -pattern .l2.gio -cmd 'go run ./cmd/cosmotools -mode centers -np 32 -in {file}'
//	listener -watch ./hacc-out -until-idle 30s   (exit after 30s with no new files)
//	listener -watch ./hacc-out -state listener.state   (survive restarts without resubmitting)
//
// Two robustness guards make the daemon safe around crashes:
//
//   - With -state FILE, every submitted path is recorded in a crash-
//     consistent journal (internal/ckpt) and reloaded on start, so a
//     restarted listener never resubmits an analysis that already ran.
//   - A file is only submitted once its size is stable across two
//     consecutive polls — a file still being written by the simulation is
//     left until the writer is done with it.
package main

import (
	"flag"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/ckpt"
)

func main() {
	log.SetFlags(log.Ltime)
	log.SetPrefix("listener: ")
	var (
		watchDir  = flag.String("watch", ".", "directory to watch")
		pattern   = flag.String("pattern", ".l2.gio", "substring that marks analyzable output files")
		cmdTmpl   = flag.String("cmd", "", "command template; {file} is replaced by the new file's path (empty: log only)")
		poll      = flag.Duration("poll", 2*time.Second, "poll interval (must be much shorter than the output cadence)")
		untilIdle = flag.Duration("until-idle", 0, "exit after this long with no new files (0: run forever)")
		maxJobs   = flag.Int("max-parallel", 2, "maximum concurrently running analysis jobs")
		stateFile = flag.String("state", "", "journal persisting submitted paths; reloaded on start so a restarted listener never resubmits")
	)
	flag.Parse()
	// A zero job limit deadlocks at the first submission, a negative one
	// panics, and a zero poll interval spins a core on ReadDir.
	if *maxJobs < 1 {
		log.Print("-max-parallel must be at least 1")
		os.Exit(2)
	}
	if *poll <= 0 {
		log.Print("-poll must be positive")
		os.Exit(2)
	}

	seen := map[string]bool{}
	var state *ckpt.Journal
	if *stateFile != "" {
		j, records, err := ckpt.Open(*stateFile)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := j.Close(); err != nil {
				log.Printf("state journal close: %v", err)
			}
		}()
		for _, r := range records {
			if r.Kind == ckpt.KindSeen {
				seen[r.Path] = true
			}
		}
		state = j
		log.Printf("state %s: %d previously submitted files will not be resubmitted", *stateFile, len(seen))
	}
	markSeen := func(path string) {
		seen[path] = true
		if state != nil {
			if err := state.Append(ckpt.Record{Kind: ckpt.KindSeen, Path: path}); err != nil {
				log.Printf("state journal: %v", err)
			}
		}
	}

	lastSize := map[string]int64{}
	sem := make(chan struct{}, *maxJobs)
	lastNew := time.Now()
	submitted := 0
	for {
		entries, err := os.ReadDir(*watchDir)
		if err != nil {
			log.Printf("reading %s: %v", *watchDir, err)
			time.Sleep(*poll)
			continue
		}
		var fresh []string
		for _, e := range entries {
			if e.IsDir() || !strings.Contains(e.Name(), *pattern) {
				continue
			}
			path := filepath.Join(*watchDir, e.Name())
			if seen[path] {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue // vanished between readdir and stat; retried next poll
			}
			prev, polled := lastSize[path]
			lastSize[path] = info.Size()
			if !polled || prev != info.Size() {
				continue // first sighting or still growing: wait for a stable size
			}
			markSeen(path)
			delete(lastSize, path)
			fresh = append(fresh, path)
		}
		sort.Strings(fresh)
		for _, path := range fresh {
			lastNew = time.Now()
			submitted++
			log.Printf("new output %s -> submitting analysis job %d", path, submitted)
			if *cmdTmpl == "" {
				continue
			}
			cmdline := strings.ReplaceAll(*cmdTmpl, "{file}", path)
			sem <- struct{}{}
			go func(cmdline, path string) {
				defer func() { <-sem }()
				start := time.Now()
				cmd := exec.Command("sh", "-c", cmdline)
				out, err := cmd.CombinedOutput()
				if err != nil {
					log.Printf("job for %s failed: %v\n%s", path, err, out)
					return
				}
				log.Printf("job for %s finished in %.1fs", path, time.Since(start).Seconds())
			}(cmdline, path)
		}
		if *untilIdle > 0 && time.Since(lastNew) > *untilIdle {
			log.Printf("idle for %v; exiting after %d jobs", *untilIdle, submitted)
			// Drain running jobs.
			for i := 0; i < cap(sem); i++ {
				sem <- struct{}{}
			}
			return
		}
		time.Sleep(*poll)
	}
}
