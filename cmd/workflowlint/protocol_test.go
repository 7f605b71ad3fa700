package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtureFiles is a minimal three-package module exercising two
// cross-package fact chains: app -> pipeline -> gio for errflow, plus
// pipeline's map-iteration taint (dettaint summary fact) flowing into
// gio's product sink from app. Package app introduces one errflow and
// one dettaint violation, each only detectable through facts imported
// from package pipeline: the dropped write error rides Save's fact; the
// map-iteration taint rides Keys's summary fact into gio.WriteInts's
// argument. WriteInts's own error is returned, so no second errflow
// finding appears.
var fixtureFiles = map[string]string{
	"go.mod": "module lintfixture\n\ngo 1.22\n",
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

import "lintfixture/gio"

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
	"app/app.go": `package app

import (
	"lintfixture/gio"
	"lintfixture/pipeline"
)

func Run() error {
	pipeline.Save("out")
	m := map[int]int{1: 1, 2: 2}
	return gio.WriteInts("out", pipeline.Keys(m))
}
`,
}

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
			built.err = fmt.Errorf("building workflowlint: %w\n%s", err, out)
		}
	})
	if built.err != nil {
		t.Fatal(built.err)
	}
	return built.path
}

// writeModule materializes a fixture module under dir.
func writeModule(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
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
// requires the driver to find both: the direct one through store's
// LockEdges fact and the via-call one through Touch's LockSummary fact.
func TestLockOrderParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	tool := buildTool(t)
	fixture := t.TempDir()
	writeModule(t, fixture, lockFixtureFiles)

	cmd := exec.Command(tool, "./...")
	cmd.Dir = fixture
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err == nil {
		t.Fatalf("run over inverted module unexpectedly clean:\n%s", buf.String())
	}
	if n := strings.Count(buf.String(), "lock order inversion"); n < 2 {
		t.Errorf("found %d lock order inversions, want >= 2 (direct + via-call):\n%s", n, buf.String())
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

// TestFixRoundTrip drives the whole -fix pipeline end to end: -diff
// without -fix is refused, the drift gate (-fix -diff) reports pending fixes with exit 2, -fix
// rewrites the tree and exits 0 because every finding was fixable, the
// re-lint is clean, and the drift gate then passes with empty output.
func TestFixRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	tool := buildTool(t)
	fixture := t.TempDir()
	writeModule(t, fixture, fixFixtureFiles)

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

	// -diff alone is a usage error, not a silent plain lint.
	_, stderr, code := run("-diff", "./...")
	if code != 1 || !strings.Contains(stderr, "-diff requires -fix") {
		t.Fatalf("-diff without -fix: exit %d, want 1 with a usage message\nstderr: %s", code, stderr)
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
// ruleIds resolving into the rule table and messages naming facts from
// two packages away, byte-identical across runs.
func TestSarifOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	tool := buildTool(t)
	fixture := t.TempDir()
	writeModule(t, fixture, fixtureFiles)

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
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2 (errflow, dettaint):\n%s", len(run.Results), first)
	}
	seen := map[string]bool{}
	var messages []string
	for _, r := range run.Results {
		seen[r.RuleID] = true
		messages = append(messages, r.Message.Text)
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
	for _, want := range []string{"errflow", "dettaint"} {
		if !seen[want] {
			t.Errorf("no %s result in SARIF output; got %v", want, seen)
		}
	}
	all := strings.Join(messages, "\n")
	for _, want := range []string{
		"propagates write errors from gio.WriteFile",
		"map iteration order reaches gio.WriteInts",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("no diagnostic names the cross-package fact %q:\n%s", want, all)
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
	if len(lines) != 6 {
		t.Fatalf("-list printed %d lines, want 6 (one per analyzer):\n%s", len(lines), stdout.String())
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
	for _, want := range []string{"dettaint", "errflow", "lockorder"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list missing analyzer %q:\n%s", want, stdout.String())
		}
	}
}
