package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Charge-policy cost accounting.
//
// The paper prices campaigns under the Titan allocation policy: holding
// one node for an hour charges 30 core-hours, regardless of how many of
// the node's cores the job uses (Table 3's footnote); the smaller analysis
// machines charge their cores per node. Each span carries the charge
// factor of the machine that held it (platform.Machine.ChargeFactor, the
// one owner of that number), and the CostReport folds every charged span
// (Nodes > 0) into a per-category line of wall seconds, node-hours, and
// core-hours. Spans with Nodes == 0 (queue waits, transit deliveries)
// still report wall seconds — visible time, zero charge — which is exactly
// the paper's distinction between queueing delay and billed analysis time.

// CostLine is one span category's rollup.
type CostLine struct {
	Category  string
	Spans     int
	Seconds   float64 // summed span durations (wall, virtual time)
	NodeHours float64 // Σ nodes × duration / 3600 over charged spans
	CoreHours float64 // node-hours × each span's machine charge factor
}

// CostReport prices one observer's spans.
type CostReport struct {
	Name  string // observer name
	Lines []CostLine
	Total CostLine // Category "total"
}

// Cost rolls the observer's spans up by category. Categories sort
// lexically, so the report is deterministic.
func Cost(o *Observer) CostReport {
	r := CostReport{Name: o.Name()}
	byCat := map[string]*CostLine{}
	for _, sp := range o.Spans() {
		l := byCat[sp.Cat]
		if l == nil {
			l = &CostLine{Category: sp.Cat}
			byCat[sp.Cat] = l
		}
		l.Spans++
		l.Seconds += sp.Duration()
		if sp.Nodes > 0 {
			nh := float64(sp.Nodes) * sp.Duration() / 3600
			l.NodeHours += nh
			l.CoreHours += nh * sp.ChargeFactor
		}
	}
	cats := make([]string, 0, len(byCat))
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		l := *byCat[c]
		r.Lines = append(r.Lines, l)
		r.Total.Spans += l.Spans
		r.Total.Seconds += l.Seconds
		r.Total.NodeHours += l.NodeHours
		r.Total.CoreHours += l.CoreHours
	}
	r.Total.Category = "total"
	return r
}

// WriteTable renders the report as a fixed-width text table (the
// `workflow-sim -cost` artifact; deterministic bytes). The header names
// the paper's Titan allocation policy, which every span follows.
func (r CostReport) WriteTable(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "cost report: %s (policy titan)\n", r.Name)
	fmt.Fprintf(&b, "  %-22s %6s %14s %12s %12s\n", "category", "spans", "seconds", "node-hours", "core-hours")
	row := func(l CostLine) {
		fmt.Fprintf(&b, "  %-22s %6d %14.2f %12.4f %12.2f\n", l.Category, l.Spans, l.Seconds, l.NodeHours, l.CoreHours)
	}
	for _, l := range r.Lines {
		row(l)
	}
	row(r.Total)
	_, err := io.WriteString(w, b.String())
	return err
}
