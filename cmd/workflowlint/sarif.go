package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
)

// SARIF 2.1.0 output (-sarif): the static-analysis interchange format
// CI dashboards and code-scanning UIs ingest. One run, one tool
// (workflowlint), one rule per analyzer, one result per diagnostic.
// Only the subset of the schema the consumers actually read is
// emitted; the structs below mirror the spec's property names.
//
// Determinism contract: rules sort by analyzer name, results inherit
// the canonical diagnostic order (file, line, column, analyzer,
// message), and encoding/json emits struct fields in declaration
// order — two runs over the same tree are byte-identical, so the
// report itself can be diffed or content-addressed.

const (
	sarifSchema  = "https://json.schemastore.org/sarif-2.1.0.json"
	sarifVersion = "2.1.0"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// sarifRules builds the rule table from the analyzer suite, sorted by
// name, and returns it with a name→index lookup for results.
func sarifRules() ([]sarifRule, map[string]int) {
	analyzers := sortedAnalyzers()
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: firstLine(a.Doc)},
		})
	}
	index := make(map[string]int, len(rules))
	for i, r := range rules {
		index[r.ID] = i
	}
	return rules, index
}

// sarifReport renders diagnostics as one indented SARIF 2.1.0 log,
// trailing newline included. diags must already be in canonical order
// (sortDiagnostics); a diagnostic from an analyzer outside the suite
// gets RuleIndex -1 rather than being dropped.
func sarifReport(diags []diagnostic) ([]byte, error) {
	rules, index := sarifRules()
	// Findings gate CI: every diagnostic is level "error".
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		idx, ok := index[d.Analyzer]
		if !ok {
			idx = -1
		}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: filepath.ToSlash(d.File)},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "workflowlint", Rules: rules}},
			Results: results,
		}},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(log); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
