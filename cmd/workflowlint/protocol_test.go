package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixtureFiles is a minimal four-package module exercising three
// cross-package fact chains: app -> pipeline -> {mpi, gio} for
// mpicollective and errflow, plus pipeline's map-iteration taint
// (dettaint summary fact) flowing into gio's product sink from app.
// The packages import nothing from the standard library, so the four
// of them are everything a vet run executes.
var fixtureFiles = map[string]string{
	"go.mod": "module lintfixture\n\ngo 1.22\n",
	"mpi/mpi.go": `// Package mpi is a no-op stand-in for the repository's rank mesh —
// just enough surface for the analyzers' fact computation.
package mpi

type Comm struct{ rank, size int }

func (c *Comm) Rank() int                 { return c.rank }
func (c *Comm) Size() int                 { return c.size }
func (c *Comm) Barrier()                  {}
func (c *Comm) AllReduceSumInt(v int) int { return v * c.size }
`,
	"gio/gio.go": `package gio

type writeError struct{}

func (writeError) Error() string { return "write failed" }

// WriteFile is an errflow root: exported, Write-prefixed, in a package
// named gio, returning error.
func WriteFile(path string, data []byte) error {
	if path == "" {
		return writeError{}
	}
	_ = data
	return nil
}

// WriteInts is a dettaint product sink: exported, Write-prefixed, in a
// package named gio.
func WriteInts(path string, vals []int) error {
	if path == "" {
		return writeError{}
	}
	_ = vals
	return nil
}
`,
	"pipeline/pipeline.go": `package pipeline

import (
	"lintfixture/gio"
	"lintfixture/mpi"
)

// SyncAll reaches a collective one call deep: callers inherit the
// CallsCollective fact.
func SyncAll(c *mpi.Comm) { c.Barrier() }

// Save propagates gio.WriteFile's write error: callers inherit the
// WriteErrorSource fact.
func Save(path string) error { return gio.WriteFile(path, nil) }

// Keys collects map keys in iteration order: the result carries
// dettaint's map-iteration taint, exported as a summary fact that
// callers in other packages compose at their own sink sites.
func Keys(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
	"app/app.go": appClean,
}

const appClean = `package app

import (
	"lintfixture/mpi"
	"lintfixture/pipeline"
)

func Run(c *mpi.Comm) error {
	pipeline.SyncAll(c)
	return pipeline.Save("out")
}
`

// appViolated introduces one mpicollective, one errflow, and one
// dettaint violation, each only detectable through facts imported from
// package pipeline: the rank-gated collective and the dropped write
// error ride SyncAll's and Save's facts; the map-iteration taint rides
// Keys's summary fact into gio.WriteInts's argument. WriteInts's own
// error is returned, so no second errflow finding appears.
const appViolated = `package app

import (
	"lintfixture/gio"
	"lintfixture/mpi"
	"lintfixture/pipeline"
)

func Run(c *mpi.Comm) error {
	if c.Rank() == 0 {
		pipeline.SyncAll(c)
	}
	pipeline.Save("out")
	m := map[int]int{1: 1, 2: 2}
	return gio.WriteInts("out", pipeline.Keys(m))
}
`

// built is the workflowlint binary, built once per test binary.
var built struct {
	once sync.Once
	dir  string // removed by TestMain
	path string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if built.dir != "" {
		os.RemoveAll(built.dir)
	}
	os.Exit(code)
}

// buildTool returns the path of the workflowlint binary, compiling it
// on first use.
func buildTool(t *testing.T) string {
	t.Helper()
	built.once.Do(func() {
		built.dir, built.err = os.MkdirTemp("", "workflowlint-test-")
		if built.err != nil {
			return
		}
		built.path = filepath.Join(built.dir, "workflowlint")
		if out, err := exec.Command("go", "build", "-o", built.path, ".").CombinedOutput(); err != nil {
			built.err = fmt.Errorf("building workflowlint: %v\n%s", err, out)
		}
	})
	if built.err != nil {
		t.Fatal(built.err)
	}
	return built.path
}

// runStamp is appended, as a trailing comment, to every Go file of a
// module that `go vet` runs over. cmd/go keys its vet action cache by
// file content, so a stamp unique to this process makes the execution
// counts deterministic — the first run can never be served from a
// previous test run's cache — while the standard library still comes
// out of the ordinary build cache instead of being compiled from cold
// into a private one (54 packages, ~11 s, per cache).
var runStamp = fmt.Sprintf("\n// test run %d-%d\n", os.Getpid(), time.Now().UnixNano())

// writeModule materializes a fixture module under dir, stamping its Go
// files with runStamp.
func writeModule(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		if strings.HasSuffix(name, ".go") {
			content += runStamp
		}
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// writeFixture materializes fixtureFiles under dir.
func writeFixture(t *testing.T, dir string) {
	t.Helper()
	writeModule(t, dir, fixtureFiles)
}

// envWith returns the current environment with key forced to val.
func envWith(env []string, key, val string) []string {
	var out []string
	prefix := key + "="
	for _, kv := range env {
		if !strings.HasPrefix(kv, prefix) {
			out = append(out, kv)
		}
	}
	return append(out, prefix+val)
}

// diagLine matches the tool's human-readable diagnostic format.
var diagLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): ([a-z]+): (.+)$`)

// normalizeDiags reduces diagnostics to a sorted, mode-independent form:
// base filename, line, analyzer, message. (Columns and directory
// prefixes differ between go vet's cwd-relative paths and the
// standalone loader's absolute ones.)
func normalizeDiags(t *testing.T, lines []string) []string {
	t.Helper()
	var out []string
	for _, l := range lines {
		m := diagLine.FindStringSubmatch(strings.TrimSpace(l))
		if m == nil {
			continue
		}
		out = append(out, fmt.Sprintf("%s:%s: %s: %s", filepath.Base(m[1]), m[2], m[4], m[5]))
	}
	sort.Strings(out)
	return out
}

// TestVetProtocolCaching drives the full unit-checker protocol against
// a module whose leaf package violates mpicollective, errflow, and
// dettaint in ways only visible through facts from its dependencies. cmd/go
// consults the vet action cache only for VetxOnly (dependency) actions
// — named packages always re-execute — so the test names only the leaf:
// the first run executes all four packages and caches the three
// dependencies' vetx files; the second run executes exactly one (the
// leaf) and must still report the identical cross-package diagnostics,
// proving the facts were read back from the cached vetx files rather
// than recomputed. Finally the standalone mode is run over the same
// module and its diagnostics must match the vet mode's exactly.
func TestVetProtocolCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet")
	}

	scratch := t.TempDir()
	tool := buildTool(t)

	fixture := filepath.Join(scratch, "fixture")
	writeFixture(t, fixture)
	if err := os.WriteFile(filepath.Join(fixture, "app", "app.go"), []byte(appViolated), 0o666); err != nil {
		t.Fatal(err)
	}

	// The vettool is a wrapper that appends every *.cfg argument to a
	// log before delegating, so the test can count which packages were
	// actually executed vs served from go vet's action cache.
	logFile := filepath.Join(scratch, "execs.log")
	wrapper := filepath.Join(scratch, "vetwrap")
	script := fmt.Sprintf(`#!/bin/sh
for a in "$@"; do
	case "$a" in
	*.cfg) echo "$a" >>%q ;;
	esac
done
exec %q "$@"
`, logFile, tool)
	if err := os.WriteFile(wrapper, []byte(script), 0o777); err != nil {
		t.Fatal(err)
	}

	env := envWith(os.Environ(), "GOFLAGS", "")

	countExecs := func() int {
		data, err := os.ReadFile(logFile)
		if os.IsNotExist(err) {
			return 0
		}
		if err != nil {
			t.Fatal(err)
		}
		return len(strings.Split(strings.TrimSpace(string(data)), "\n"))
	}
	resetLog := func() {
		if err := os.WriteFile(logFile, nil, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	runVet := func() (string, error) {
		// Name only the leaf: its dependencies become VetxOnly vet
		// actions, the only kind cmd/go serves from the action cache.
		cmd := exec.Command("go", "vet", "-vettool="+wrapper, "./app")
		cmd.Dir = fixture
		cmd.Env = env
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = &buf
		err := cmd.Run()
		return buf.String(), err
	}

	// Run 1: cold cache. The leaf plus its three dependencies execute,
	// and the diagnostics must name facts from two packages away.
	out, err := runVet()
	if err == nil {
		t.Fatalf("vet run over violated module unexpectedly clean:\n%s", out)
	}
	if got := countExecs(); got != 4 {
		t.Errorf("cold-cache run executed %d packages, want 4\nlog:\n%s", got, readLog(t, logFile))
	}
	for _, want := range []string{
		"SyncAll (reaches Barrier)",
		"propagates write errors from gio.WriteFile",
		"map iteration order reaches gio.WriteInts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("vet output missing cross-package diagnostic %q:\n%s", want, out)
		}
	}
	run1 := normalizeDiags(t, strings.Split(out, "\n"))

	// Run 2: nothing changed. Only the named leaf re-executes; the
	// dependencies' vetx fact files are served from the action cache,
	// and the cross-package diagnostics must survive unchanged.
	resetLog()
	out, err = runVet()
	if err == nil {
		t.Fatalf("cached vet run unexpectedly clean:\n%s", out)
	}
	if got := countExecs(); got != 1 {
		t.Errorf("warm-cache run executed %d packages, want 1 (dependencies not served from vet action cache)\nlog:\n%s", got, readLog(t, logFile))
	}
	run2 := normalizeDiags(t, strings.Split(out, "\n"))
	if fmt.Sprint(run1) != fmt.Sprint(run2) {
		t.Errorf("diagnostics changed when facts came from the cache:\ncold: %v\nwarm: %v", run1, run2)
	}

	// Parity: the standalone driver over the same module must report
	// the identical diagnostics.
	vetDiags := run2

	cmd := exec.Command(tool, "./...")
	cmd.Dir = fixture
	cmd.Env = env
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err == nil {
		t.Fatalf("standalone run over violated module unexpectedly clean:\n%s", buf.String())
	}
	standaloneDiags := normalizeDiags(t, strings.Split(buf.String(), "\n"))

	if len(vetDiags) == 0 {
		t.Fatal("no diagnostics parsed from vet output")
	}
	if fmt.Sprint(vetDiags) != fmt.Sprint(standaloneDiags) {
		t.Errorf("vet and standalone modes disagree:\nvet:        %v\nstandalone: %v", vetDiags, standaloneDiags)
	}
}

// TestJSONOutput checks the -json contract on the same fixture: one
// JSON object per line with file, line, analyzer, and message fields.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	scratch := t.TempDir()
	tool := buildTool(t)
	fixture := filepath.Join(scratch, "fixture")
	writeFixture(t, fixture)
	if err := os.WriteFile(filepath.Join(fixture, "app", "app.go"), []byte(appViolated), 0o666); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(tool, "-json", "./...")
	cmd.Dir = fixture
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("expected diagnostics, got clean run\nstderr: %s", stderr.String())
	}

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 JSON diagnostics, got %d:\n%s", len(lines), stdout.String())
	}
	analyzers := map[string]bool{}
	for _, line := range lines {
		var d struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("line is not a JSON object: %q: %v", line, err)
		}
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("diagnostic missing fields: %q", line)
		}
		if filepath.Base(d.File) != "app.go" {
			t.Errorf("diagnostic in %s, want app.go", d.File)
		}
		analyzers[d.Analyzer] = true
	}
	if !analyzers["mpicollective"] || !analyzers["errflow"] || !analyzers["dettaint"] {
		t.Errorf("want one mpicollective, one errflow, and one dettaint diagnostic, got %v", analyzers)
	}
}

func readLog(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return string(data)
}

// lockFixtureFiles is a two-package module whose AB/BA lock-order
// inversion is split across the package boundary: package store
// establishes Mu→Aux and exports both the edge (LockEdges package
// fact) and Touch's acquisition set (LockSummary object fact); package
// app contradicts the order once directly and once through a call made
// while holding its own mutex. Every inversion is invisible to a
// single-package analysis — the facts are the only carrier.
var lockFixtureFiles = map[string]string{
	"go.mod": "module lockfixture\n\ngo 1.22\n",
	"store/store.go": `package store

import "sync"

var Mu sync.Mutex
var Aux sync.Mutex

// Establish pins the canonical order: Mu before Aux.
func Establish() {
	Mu.Lock()
	Aux.Lock()
	Aux.Unlock()
	Mu.Unlock()
}

// Touch acquires Mu: callers holding another lock inherit the edge.
func Touch() {
	Mu.Lock()
	Mu.Unlock()
}
`,
	"app/app.go": `package app

import (
	"sync"

	"lockfixture/store"
)

var Gate sync.Mutex

// Inverted takes Aux before Mu — the reverse of store.Establish's
// order, visible only through store's exported LockEdges.
func Inverted() {
	store.Aux.Lock()
	store.Mu.Lock()
	store.Mu.Unlock()
	store.Aux.Unlock()
}

// Direct pins store.Mu before Gate.
func Direct() {
	store.Mu.Lock()
	Gate.Lock()
	Gate.Unlock()
	store.Mu.Unlock()
}

// HoldAndCall acquires store.Mu through store.Touch while holding
// Gate — the reverse of Direct's order, visible only through Touch's
// exported LockSummary.
func HoldAndCall() {
	Gate.Lock()
	store.Touch()
	Gate.Unlock()
}
`,
}

// TestLockOrderParity seeds the cross-package AB/BA inversions and
// requires both driver modes to find them: the vet protocol (facts ride
// vetx files) and the standalone loader (facts stay in memory) must
// report identical diagnostics, each including the lock-order
// inversions.
func TestLockOrderParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet")
	}

	scratch := t.TempDir()
	tool := buildTool(t)
	fixture := filepath.Join(scratch, "lockfixture")
	writeModule(t, fixture, lockFixtureFiles)
	env := envWith(os.Environ(), "GOFLAGS", "")

	// Vet mode, naming only the leaf: store is a VetxOnly dependency, so
	// its LockEdges and LockSummary facts reach app exclusively through
	// the serialized vetx file.
	vetCmd := exec.Command("go", "vet", "-vettool="+tool, "./app")
	vetCmd.Dir = fixture
	vetCmd.Env = env
	var vetBuf bytes.Buffer
	vetCmd.Stdout = &vetBuf
	vetCmd.Stderr = &vetBuf
	if err := vetCmd.Run(); err == nil {
		t.Fatalf("vet run over inverted module unexpectedly clean:\n%s", vetBuf.String())
	}
	vetOut := vetBuf.String()
	if n := strings.Count(vetOut, "lock order inversion"); n < 2 {
		t.Errorf("vet mode found %d lock order inversions, want >= 2 (direct + via-call):\n%s", n, vetOut)
	}

	// Standalone over the same module.
	saCmd := exec.Command(tool, "./...")
	saCmd.Dir = fixture
	saCmd.Env = env
	var saBuf bytes.Buffer
	saCmd.Stdout = &saBuf
	saCmd.Stderr = &saBuf
	if err := saCmd.Run(); err == nil {
		t.Fatalf("standalone run over inverted module unexpectedly clean:\n%s", saBuf.String())
	}
	saOut := saBuf.String()
	if n := strings.Count(saOut, "lock order inversion"); n < 2 {
		t.Errorf("standalone mode found %d lock order inversions, want >= 2:\n%s", n, saOut)
	}

	vetDiags := normalizeDiags(t, strings.Split(vetOut, "\n"))
	saDiags := normalizeDiags(t, strings.Split(saOut, "\n"))
	if len(vetDiags) == 0 {
		t.Fatal("no diagnostics parsed from vet output")
	}
	if fmt.Sprint(vetDiags) != fmt.Sprint(saDiags) {
		t.Errorf("vet and standalone modes disagree on lockorder:\nvet:        %v\nstandalone: %v", vetDiags, saDiags)
	}
}

// fixFixtureFiles holds one fixable sentinelwrap violation (%v on an
// error) and one fixable closecheck violation (defer f.Close() in a
// function with a named error result).
var fixFixtureFiles = map[string]string{
	"go.mod": "module fixfixture\n\ngo 1.22\n",
	// Package blob deliberately is NOT one of atomicwrite's product
	// packages: every diagnostic here must carry a fix, so -fix exits 0.
	"blob/blob.go": `package blob

import (
	"fmt"
	"os"
)

func Wrap(err error) error {
	return fmt.Errorf("read block: %v", err)
}

func WriteAll(path string, data []byte) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}
`,
}

// TestFixRoundTrip drives the whole -fix pipeline end to end: the
// drift gate (-fix -diff) reports pending fixes with exit 2, -fix
// rewrites the tree and exits 0 because every finding was fixable, the
// re-lint is clean, and the drift gate then passes with empty output.
func TestFixRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	scratch := t.TempDir()
	tool := buildTool(t)
	fixture := filepath.Join(scratch, "fixfixture")
	for name, content := range fixFixtureFiles {
		path := filepath.Join(fixture, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	run := func(args ...string) (string, string, int) {
		cmd := exec.Command(tool, args...)
		cmd.Dir = fixture
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("running %v: %v", args, err)
		}
		return stdout.String(), stderr.String(), code
	}

	// Drift gate on a dirty tree: exit 2, diffs on stdout, no writes.
	stdout, stderr, code := run("-fix", "-diff", "./...")
	if code != 2 {
		t.Fatalf("-fix -diff on dirty tree: exit %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "+\treturn fmt.Errorf(\"read block: %w\", err)") {
		t.Errorf("-fix -diff missing the %%w rewrite:\n%s", stdout)
	}
	if !strings.Contains(stdout, "cerr := f.Close()") {
		t.Errorf("-fix -diff missing the close-capture rewrite:\n%s", stdout)
	}
	src, err := os.ReadFile(filepath.Join(fixture, "blob", "blob.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(src) != fixFixtureFiles["blob/blob.go"] {
		t.Fatal("-fix -diff modified the source tree; it must be read-only")
	}

	// Apply: everything here is fixable, so nothing remains to report.
	_, stderr, code = run("-fix", "./...")
	if code != 0 {
		t.Fatalf("-fix: exit %d, want 0 (all findings fixable)\nstderr: %s", code, stderr)
	}

	// Round trip: the rewritten tree lints clean...
	_, stderr, code = run("./...")
	if code != 0 {
		t.Fatalf("re-lint after -fix: exit %d, want 0\nstderr: %s", code, stderr)
	}
	// ...and the fixed file still compiles.
	buildCmd := exec.Command("go", "build", "./...")
	buildCmd.Dir = fixture
	if out, err := buildCmd.CombinedOutput(); err != nil {
		t.Fatalf("fixed tree does not build: %v\n%s", err, out)
	}

	// Drift gate on the clean tree: exit 0, empty output.
	stdout, stderr, code = run("-fix", "-diff", "./...")
	if code != 0 || stdout != "" {
		t.Fatalf("-fix -diff on clean tree: exit %d, stdout %q, want 0 and empty\nstderr: %s", code, stdout, stderr)
	}
}

// TestSarifOutput runs -sarif over the violated fixture: one complete
// SARIF 2.1.0 log on stdout, exit 2, one result per diagnostic with
// ruleIds resolving into the rule table, byte-identical across runs.
func TestSarifOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	scratch := t.TempDir()
	tool := buildTool(t)
	fixture := filepath.Join(scratch, "fixture")
	writeFixture(t, fixture)
	if err := os.WriteFile(filepath.Join(fixture, "app", "app.go"), []byte(appViolated), 0o666); err != nil {
		t.Fatal(err)
	}

	runSarif := func() string {
		cmd := exec.Command(tool, "-sarif", "./...")
		cmd.Dir = fixture
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("-sarif over violated fixture: err %v, want exit 2\nstderr: %s", err, stderr.String())
		}
		return stdout.String()
	}

	first := runSarif()
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(first), &log); err != nil {
		t.Fatalf("-sarif output is not one JSON document: %v\n%s", err, first)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q with %d runs, want 2.1.0 with 1 run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "workflowlint" {
		t.Errorf("driver name %q, want workflowlint", run.Tool.Driver.Name)
	}
	if len(run.Results) != 3 {
		t.Fatalf("got %d results, want 3 (mpicollective, errflow, dettaint):\n%s", len(run.Results), first)
	}
	seen := map[string]bool{}
	for _, r := range run.Results {
		seen[r.RuleID] = true
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Errorf("result %s has ruleIndex %d outside the rule table", r.RuleID, r.RuleIndex)
		} else if got := run.Tool.Driver.Rules[r.RuleIndex].ID; got != r.RuleID {
			t.Errorf("result %s points at rule %s", r.RuleID, got)
		}
		if len(r.Locations) != 1 || r.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Errorf("result %s missing a physical location", r.RuleID)
		}
		if filepath.Base(r.Locations[0].PhysicalLocation.ArtifactLocation.URI) != "app.go" {
			t.Errorf("result %s located in %s, want app.go", r.RuleID, r.Locations[0].PhysicalLocation.ArtifactLocation.URI)
		}
	}
	for _, want := range []string{"mpicollective", "errflow", "dettaint"} {
		if !seen[want] {
			t.Errorf("no %s result in SARIF output; got %v", want, seen)
		}
	}

	if second := runSarif(); first != second {
		t.Errorf("-sarif output differs between identical runs:\nrun 1:\n%s\nrun 2:\n%s", first, second)
	}
}

// TestListFlag checks `workflowlint -list`: the full suite, one line
// per analyzer with a doc string, sorted by name, exit 0.
func TestListFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	tool := buildTool(t)

	cmd := exec.Command(tool, "-list")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("-list: %v\nstderr: %s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("-list printed %d lines, want 10 (one per analyzer):\n%s", len(lines), stdout.String())
	}
	var names []string
	for _, l := range lines {
		fields := strings.Fields(l)
		if len(fields) < 2 {
			t.Errorf("-list line lacks a doc string: %q", l)
			continue
		}
		names = append(names, fields[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("-list output not sorted by analyzer name: %v", names)
	}
	for _, want := range []string{"dettaint", "allocbound", "sharecapture", "errflow", "lockorder"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list missing analyzer %q:\n%s", want, stdout.String())
		}
	}
}

// TestJSONDeterministic runs -json twice over the violated fixture and
// requires byte-identical output: the canonical sort order, not
// scheduling or map iteration, decides the stream.
func TestJSONDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	scratch := t.TempDir()
	tool := buildTool(t)
	fixture := filepath.Join(scratch, "fixture")
	writeFixture(t, fixture)
	if err := os.WriteFile(filepath.Join(fixture, "app", "app.go"), []byte(appViolated), 0o666); err != nil {
		t.Fatal(err)
	}

	runJSON := func() string {
		cmd := exec.Command(tool, "-json", "./...")
		cmd.Dir = fixture
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = io.Discard
		if err := cmd.Run(); err == nil {
			t.Fatal("expected diagnostics, got clean run")
		}
		return stdout.String()
	}
	first := runJSON()
	if first == "" {
		t.Fatal("no JSON output")
	}
	if second := runJSON(); first != second {
		t.Errorf("-json output differs between identical runs:\nrun 1:\n%s\nrun 2:\n%s", first, second)
	}
}
