package prof

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cucc/internal/obs"
	"cucc/internal/trace"
)

// PostmortemReport is a rendered flight-recorder dump: the dump itself
// plus the trace diagnosis (the same critical-path analysis cuccprof runs
// on live traces, applied to the job's retained window).
type PostmortemReport struct {
	Dump *obs.Dump `json:"dump"`
	// Diagnosis is the trace analysis of the dump's timeline (nil when the
	// dump carried no trace events).
	Diagnosis *Report `json:"diagnosis,omitempty"`
}

// AnalyzePostmortem turns a parsed flight-recorder dump into a report:
// the journal timeline is carried verbatim (it is already ordered by
// sequence number) and the trace window is run through Analyze.
func AnalyzePostmortem(d *obs.Dump) *PostmortemReport {
	rep := &PostmortemReport{Dump: d}
	if len(d.Trace) > 0 {
		evs := append([]trace.Event(nil), d.Trace...)
		diag := Analyze(evs, nil)
		diag.DroppedEvents = d.TraceDropped
		rep.Diagnosis = diag
	}
	return rep
}

// JSON serializes the post-mortem report.
func (p *PostmortemReport) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// metricHighlightPrefixes selects the dump-metrics counters worth
// surfacing in the text rendering: the recovery and launch lifecycles.
var metricHighlightPrefixes = []string{"recovery.", "core.launch."}

// Table renders the post-mortem as a failure timeline for terminals: the
// job identity and reason, the journal window (the causal chain: admit →
// dispatch → rank loss → restore → rejoin → outcome), the recovery/launch
// counters, then the standard trace diagnosis.
func (p *PostmortemReport) Table() string {
	d := p.Dump
	var b strings.Builder
	fmt.Fprintf(&b, "=== post-mortem: job %d (%s, %s) — %s ===\n", d.Job, d.Tenant, d.What, d.Reason)
	if d.Err != "" {
		fmt.Fprintf(&b, "error: %s\n", d.Err)
	}
	b.WriteString("\n--- event timeline ---\n")
	if len(d.Journal) == 0 {
		b.WriteString("(no journal events captured)\n")
	} else {
		b.WriteString(trace.ExportText(d.Journal))
	}

	var names []string
	for n := range d.Metrics.Counters {
		for _, p := range metricHighlightPrefixes {
			if strings.HasPrefix(n, p) {
				names = append(names, n)
				break
			}
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		b.WriteString("\n--- recovery / launch counters ---\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%-42s %d\n", n, d.Metrics.Counters[n])
		}
	}

	if p.Diagnosis != nil {
		b.WriteString("\n--- trace diagnosis ---\n")
		b.WriteString(p.Diagnosis.Table())
	}
	return b.String()
}
