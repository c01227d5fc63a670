// Package obs is the operational observability layer above
// internal/metrics: a bounded structured event journal (the causal record
// of what the serving stack did and why, kept in a capped trace.Recorder),
// a fixed-interval time-series sampler over a metrics registry, per-tenant
// SLO accounting over the log2 latency histograms, and the flight-recorder
// dump format cuccd writes on job failure or recovery.
//
// The journal follows the two invariants of the metrics layer:
//
//  1. Recording never changes a simulated figure or a computed byte — a
//     suites-level test runs the evaluation programs with the journal on
//     and off and asserts identical Stats and bitwise-identical heaps.
//  2. A disabled journal costs nothing.  Every method is nil-safe, so
//     "journal off" is spelled as a nil *Journal (or a zero Scope) and the
//     launch hot path pays one nil check and zero allocations.
//
// Export is deterministic: events are ordered by their monotonic sequence
// number and carry no wall-clock timestamps, so identical runs export
// byte-identical logs — the same discipline as trace.SortEvents and
// metrics.Snapshot.
package obs

import "cucc/internal/trace"

// Event types.  The journal is typed so consumers (the /events page, the
// post-mortem renderer, the chaos tests) can filter and assert on the
// causal chain rather than parse free text.
const (
	// EvAdmit records a submission entering the admission queue.
	EvAdmit = "admit"
	// EvReject records a submission turned away (queue full, draining, or
	// invalid); Detail carries the reason.
	EvReject = "reject"
	// EvDispatch records an executor dequeuing a job to run it.
	EvDispatch = "dispatch"
	// EvCompile records a source-mode kernel resolving through the compile
	// cache; Detail says whether it was cached or freshly compiled.
	EvCompile = "compile"
	// EvLaunchPhase records the launch workflow's coarse transitions
	// (start, completion, trivial fallback); Detail carries the geometry.
	EvLaunchPhase = "launch-phase"
	// EvAbort records a cluster-wide abort; Detail carries the cause.
	EvAbort = "abort"
	// EvRankLoss records a classified rank failure (the recovery path's
	// trigger); Node is the lost node when exactly one was lost.
	EvRankLoss = "rank-loss"
	// EvCheckpoint records a barrier checkpoint capture.
	EvCheckpoint = "checkpoint"
	// EvRestore records a checkpoint restore before a replay attempt.
	EvRestore = "restore"
	// EvRegroup records the surviving ranks adopting a fresh transport.
	EvRegroup = "regroup"
	// EvRejoin records repaired nodes rejoining at full cluster width.
	EvRejoin = "rejoin"
	// EvComplete records a job finishing successfully.
	EvComplete = "complete"
	// EvFail records a job finishing in error; Detail carries the message.
	EvFail = "fail"
	// EvDrain records the server entering graceful drain.
	EvDrain = "drain"
)

// Event is one journal entry: the runtime's one event record, with Phase
// holding an Ev* type and no simulated times.
type Event = trace.Event

// DefaultJournalCap bounds a journal built with NewJournal(0).
const DefaultJournalCap = 4096

// Journal is a bounded, race-safe ring of typed events: a capped trace
// recorder.  A nil *Journal is a valid disabled journal: every method
// no-ops, mirroring metrics.Registry.
type Journal = trace.Recorder

// NewJournal builds a journal retaining at most n events (the oldest are
// overwritten once full and counted as dropped).  n <= 0 selects
// DefaultJournalCap.
func NewJournal(n int) *Journal {
	if n <= 0 {
		n = DefaultJournalCap
	}
	return trace.NewCapped(n)
}

// Scope is a journal handle pre-stamped with one job's tenant and ID, the
// form the launch path and the cluster receive.  The zero Scope (nil
// journal) is disabled: Record is a nil check and a return, so wiring it
// unconditionally costs nothing — callers that build fmt.Sprintf details
// should still guard with On() to keep the disabled path allocation-free.
type Scope struct {
	J      *Journal
	Tenant string
	Job    uint64
}

// On reports whether recording is enabled — the guard hot paths use before
// building event details.
func (s Scope) On() bool { return s.J != nil }

// Record appends one typed event stamped with the scope's tenant and job.
func (s Scope) Record(typ string, rank int, kernel, detail string) {
	s.J.Add(Event{Phase: typ, Tenant: s.Tenant, Job: s.Job, Node: rank, Kernel: kernel, Detail: detail})
}

// RecordEvent appends a pre-built event (e.g. from the recovery package's
// constructors), stamping the scope's tenant and job over it.
func (s Scope) RecordEvent(ev Event) {
	ev.Tenant, ev.Job = s.Tenant, s.Job
	s.J.Add(ev)
}
