// Command listener is the co-scheduling daemon for real directories: the
// reproduction of the Bellerophon-derived script that "is set up to run in
// the background of the main application ... The listener launches
// analysis jobs when pre-specified output files are generated by the main
// application. ... When a new output file is found the listener generates
// a new batch script and input parameters, based on the timestep of the
// data and template files, and then submits the new job. The listener then
// resumes checking for new data." (§3.2)
//
// Instead of PBS batch scripts, jobs here are sh -c invocations of a
// command template, typically the stand-alone cosmotools driver on one
// Level 2 file.
//
// Usage:
//
//	listener -watch ./hacc-out -pattern .l2.gio -cmd 'go run ./cmd/cosmotools -mode centers -np 32 -in {file}'
//	listener -watch ./hacc-out -until-idle 30s   (exit after 30s with nothing pending or running)
//	listener -watch ./hacc-out -state listener.state   (survive restarts without rerunning finished analyses)
//
// It keeps the modelled listener's rule (both drive sched.Pending): names
// ending with -pattern are offered in lexicographic order once their size
// is stable across two polls, and a file is done only when its job exits
// 0. A failed job is offered again at the next poll, up to
// sched.RetryMaxAttempts attempts in all, and the listener exits 1 naming
// the files that gave up. -state journals each completion (internal/ckpt);
// a restart requeues every other matching file.
package main

import (
	"flag"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/sched"
)

func main() {
	log.SetFlags(log.Ltime)
	log.SetPrefix("listener: ")
	var (
		watchDir  = flag.String("watch", ".", "directory to watch")
		pattern   = flag.String("pattern", ".l2.gio", "name suffix that marks analyzable output files")
		cmdTmpl   = flag.String("cmd", "", "command template; {file} is replaced by the new file's path (empty: log only)")
		poll      = flag.Duration("poll", 2*time.Second, "poll interval (must be much shorter than the output cadence)")
		untilIdle = flag.Duration("until-idle", 0, "exit after this long with nothing pending or running (0: run forever)")
		maxJobs   = flag.Int("max-parallel", 2, "maximum concurrently running analysis jobs")
		stateFile = flag.String("state", "", "journal of completed analyses; reloaded on start so a restarted listener reruns only unfinished ones")
	)
	flag.Parse()
	// A job limit below 1 would never submit, and a zero poll interval
	// would spin a core on ReadDir.
	if *maxJobs < 1 {
		log.Print("-max-parallel must be at least 1")
		os.Exit(2)
	}
	if *poll <= 0 {
		log.Print("-poll must be positive")
		os.Exit(2)
	}

	var pending sched.Pending
	var state *ckpt.Journal
	if *stateFile != "" {
		j, records, err := ckpt.Open(*stateFile)
		if err != nil {
			log.Fatal(err)
		}
		done := 0
		for _, r := range records {
			if r.Kind == ckpt.KindPost {
				pending.MarkSeen(r.Path)
				done++
			}
		}
		state = j
		log.Printf("state %s: %d completed analyses will not be rerun", *stateFile, done)
	}

	// Jobs hand their outcome back to the poll loop: only it touches the
	// pending set and the journal, which is not safe for concurrent use.
	type outcome struct {
		path string
		err  error
	}
	outcomes := make(chan outcome)
	tries := map[string]int{}
	var retry, gaveUp []string // retry: requeued at the next poll
	running, submitted := 0, 0
	finish := func(path string, err error) {
		running--
		switch {
		case err != nil && tries[path] < sched.RetryMaxAttempts:
			retry = append(retry, path)
		case err != nil:
			gaveUp = append(gaveUp, path)
		case state != nil:
			if err := state.Append(ckpt.Record{Kind: ckpt.KindPost, Path: path}); err != nil {
				log.Printf("state journal: %v", err)
			}
		}
	}
	offer := func(path string) sched.Offer {
		if running >= *maxJobs {
			return sched.Keep
		}
		running++
		submitted++
		tries[path]++
		log.Printf("%s (attempt %d of %d) -> submitting analysis job %d", path, tries[path], sched.RetryMaxAttempts, submitted)
		go func() {
			start := time.Now()
			out, err := exec.Command("sh", "-c", strings.ReplaceAll(*cmdTmpl, "{file}", path)).CombinedOutput() // empty -cmd: a no-op
			if err != nil {
				log.Printf("job for %s failed: %v\n%s", path, err, out)
			} else {
				log.Printf("job for %s finished in %.1fs", path, time.Since(start).Seconds())
			}
			outcomes <- outcome{path, err}
		}()
		return sched.Take
	}

	lastSize := map[string]int64{}
	lastBusy := time.Now()
	tick := time.NewTicker(*poll)
	for idle := false; !idle; {
		select {
		case o := <-outcomes:
			finish(o.path, o.err)
			if o.err == nil {
				pending.Sweep(offer) // the freed slot takes a ready file now
			}
			continue
		case <-tick.C:
		}
		// -poll is the retry backoff: a failed job waits for this tick.
		for _, path := range retry {
			pending.Requeue(path)
		}
		retry = retry[:0]
		entries, err := os.ReadDir(*watchDir)
		if err != nil {
			log.Printf("reading %s: %v", *watchDir, err)
		}
		for _, e := range entries {
			path := filepath.Join(*watchDir, e.Name())
			if e.IsDir() || !strings.HasSuffix(e.Name(), *pattern) || pending.Seen(path) {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue // vanished between readdir and stat; retried next poll
			}
			prev, polled := lastSize[path]
			lastSize[path] = info.Size()
			if polled && prev == info.Size() {
				pending.Add(path) // stable across two polls: the writer is done
			}
		}
		pending.Sweep(offer)
		if pending.Len() > 0 || running > 0 {
			lastBusy = time.Now()
		}
		idle = *untilIdle > 0 && time.Since(lastBusy) > *untilIdle
	}
	log.Printf("idle for %v; exiting after %d jobs", *untilIdle, submitted)
	if state != nil {
		if err := state.Close(); err != nil {
			log.Printf("state journal close: %v", err)
		}
	}
	if len(gaveUp) > 0 {
		log.Printf("gave up after %d attempts on: %s", sched.RetryMaxAttempts, strings.Join(gaveUp, " "))
		os.Exit(1)
	}
}
