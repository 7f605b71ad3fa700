package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// sarifFixedDiags is a hand-built diagnostic set with relative paths,
// so the expected output is position-stable regardless of where the
// test runs. Deliberately unsorted: sarifReport's contract starts
// after sortDiagnostics, so the test sorts first, like report does.
var sarifFixedDiags = []diagnostic{
	{File: "pkg/b/b.go", Line: 12, Col: 3, Analyzer: "errflow", Message: "write error dropped"},
	{File: "pkg/a/a.go", Line: 7, Col: 9, Analyzer: "dettaint", Message: "nondeterministic value from time.Now reaches gio.WriteFile (arg 2) (witness: stamp → data)"},
}

// sarifResultsGolden pins the exact rendering of the results array:
// canonical order, error level, slash paths, 1-based line/column.
// RuleIndex values are resolved against the live rule table rather
// than pinned, so adding an analyzer does not invalidate the golden.
const sarifResultsGolden = `[
  {
    "ruleId": "dettaint",
    "ruleIndex": %d,
    "level": "error",
    "message": {
      "text": "nondeterministic value from time.Now reaches gio.WriteFile (arg 2) (witness: stamp → data)"
    },
    "locations": [
      {
        "physicalLocation": {
          "artifactLocation": {
            "uri": "pkg/a/a.go"
          },
          "region": {
            "startLine": 7,
            "startColumn": 9
          }
        }
      }
    ]
  },
  {
    "ruleId": "errflow",
    "ruleIndex": %d,
    "level": "error",
    "message": {
      "text": "write error dropped"
    },
    "locations": [
      {
        "physicalLocation": {
          "artifactLocation": {
            "uri": "pkg/b/b.go"
          },
          "region": {
            "startLine": 12,
            "startColumn": 3
          }
        }
      }
    ]
  }
]`

func TestSarifReportGolden(t *testing.T) {
	diags := append([]diagnostic(nil), sarifFixedDiags...)
	sortDiagnostics(diags)
	data, err := sarifReport(diags)
	if err != nil {
		t.Fatal(err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("sarifReport output is not valid JSON: %v\n%s", err, data)
	}
	if log.Schema != sarifSchema || log.Version != "2.1.0" {
		t.Errorf("schema/version = %q/%q, want %q/2.1.0", log.Schema, log.Version, sarifSchema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	driver := log.Runs[0].Tool.Driver
	if driver.Name != "workflowlint" {
		t.Errorf("driver name %q, want workflowlint", driver.Name)
	}

	// The rule table is the full suite, sorted by analyzer name, each
	// with a non-empty one-line description.
	if len(driver.Rules) != len(lint.Analyzers()) {
		t.Errorf("rule table has %d entries, want %d (one per analyzer)", len(driver.Rules), len(lint.Analyzers()))
	}
	ids := make([]string, len(driver.Rules))
	for i, r := range driver.Rules {
		ids[i] = r.ID
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has empty shortDescription", r.ID)
		}
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("rules not sorted by id: %v", ids)
	}
	_, index := sarifRules()
	for _, name := range []string{"dettaint", "errflow", "lockorder"} {
		if _, ok := index[name]; !ok {
			t.Errorf("rule table missing analyzer %q", name)
		}
	}

	// Golden comparison of the results array: indent the raw slice the
	// way it appears nested inside the full document, then compare.
	var resultsBuf bytes.Buffer
	if err := json.Indent(&resultsBuf, log.Runs[0].Results, "", "  "); err != nil {
		t.Fatal(err)
	}
	want := strings.Replace(sarifResultsGolden, "%d", strconv.Itoa(index["dettaint"]), 1)
	want = strings.Replace(want, "%d", strconv.Itoa(index["errflow"]), 1)
	if got := resultsBuf.String(); got != want {
		t.Errorf("results array mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Byte determinism: a second render is identical.
	again, err := sarifReport(diags)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("sarifReport is not byte-deterministic across identical inputs")
	}
}

// TestSarifReportEmpty: a clean run still renders a complete log with
// an empty results array — the shape CI uploaders require.
func TestSarifReportEmpty(t *testing.T) {
	data, err := sarifReport(nil)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("empty report is not valid JSON: %v\n%s", err, data)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	if log.Runs[0].Results == nil {
		t.Error("results must be an empty array, not null")
	}
	if len(log.Runs[0].Results) != 0 {
		t.Errorf("empty input produced %d results", len(log.Runs[0].Results))
	}
}
