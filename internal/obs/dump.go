package obs

import (
	"encoding/json"
	"fmt"

	"cucc/internal/metrics"
)

// DumpSchemaVersion is the flight-recorder dump format this package writes
// and parses, and the only one it parses.  Version 2 gave the trace array
// the journal's keys (one event record for both), so a version 1 trace
// would decode to zeros rather than fail.
const DumpSchemaVersion = 2

// Dump reasons.
const (
	// DumpReasonFailure: the job finished in error.
	DumpReasonFailure = "failure"
	// DumpReasonRecovery: the job completed, but only after one or more
	// checkpoint restores — worth a post-mortem even though it succeeded.
	DumpReasonRecovery = "recovery"
)

// Dump is one flight-recorder post-mortem bundle: the recent journal
// window, the failed (or recovered) job's isolated metrics delta, and its
// capped trace, plus enough metadata to name the job.  cuccd writes one on
// job failure or recovery; `cuccprof -postmortem` parses it back into a
// failure timeline.
type Dump struct {
	Schema int    `json:"schema_version"`
	Reason string `json:"reason"` // DumpReasonFailure | DumpReasonRecovery
	Tenant string `json:"tenant"`
	Job    uint64 `json:"job"`
	// What names the workload: the program name or "source:<kernel>".
	What string `json:"what"`
	// Err is the job's terminal error (empty for DumpReasonRecovery).
	Err string `json:"err,omitempty"`
	// Journal is the recent server-wide journal window at dump time — the
	// causal context around the failure, not just the one job's events.
	Journal []Event `json:"journal"`
	// Metrics is the job's isolated registry snapshot (a per-job delta by
	// construction: the serving layer gives every job a fresh registry).
	Metrics metrics.Snapshot `json:"metrics"`
	// Trace is the job's capped trace, in trace.SortEvents order.
	Trace []Event `json:"trace"`
	// TraceDropped counts events the capped recorder overwrote: nonzero
	// means Trace covers only the retained window.
	TraceDropped int64 `json:"trace_dropped,omitempty"`
}

// JSON serializes the dump deterministically (fixed field order, events in
// their recorded orders).
func (d *Dump) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// ParseDump loads a dump written by JSON.
func ParseDump(data []byte) (*Dump, error) {
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("obs: not a flight-recorder dump: %w", err)
	}
	if d.Schema != DumpSchemaVersion {
		return nil, fmt.Errorf("obs: dump schema v%d, this tool reads only v%d", d.Schema, DumpSchemaVersion)
	}
	if d.Reason == "" {
		return nil, fmt.Errorf("obs: dump has no reason; not a flight-recorder dump")
	}
	return &d, nil
}
