// Package trace is the runtime's one event record and the capped ring that
// holds it.  Two kinds of event share the record: the simulated-time
// timeline of CuCC kernel launches (one span per node per phase,
// exportable as a summary table or as Chrome trace-event JSON for
// chrome://tracing or Perfetto) and the operational journal internal/obs
// keeps (typed events attributed to a tenant and job: admission, dispatch,
// rank loss, checkpoint, restore).  internal/prof consumes the spans
// (directly or re-imported from a serialized trace via ParseChromeDropped)
// for critical-path and straggler analysis.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Phase names used by the runtime.
const (
	PhaseLaunch    = "launch-overhead"
	PhasePartial   = "partial-block-execution"
	PhaseAllgather = "allgather"
	PhaseCallback  = "callback-block-execution"
	// PhaseWorker spans detail a partial/callback phase: one span per
	// intra-node worker that executed blocks, with the block count in
	// Detail.  Emitted only when the node's worker pool is wider than one.
	PhaseWorker = "worker-block-execution"
	// PhaseAbort marks a launch that failed and cancelled its peers via
	// the cooperative transport abort; Detail carries the joined errors.
	PhaseAbort = "abort"
	// PhaseTimeout marks a launch that failed because a transport
	// receive deadline expired (a peer stopped participating).
	PhaseTimeout = "recv-timeout"
	// PhaseRecovery marks an elastic-recovery restore: a rank loss was
	// classified, a checkpoint restored, and the launch replayed over the
	// surviving subgroup; Detail carries the cursor, lost nodes, and the
	// surviving rank count.
	PhaseRecovery = "recovery"
)

// Event is one record: a timeline span in simulated time (Phase is a
// Phase* name and StartSec/DurSec are set) or a journal event (Phase is an
// obs.Ev* type, attributed to a Tenant and Job, with no times).  The zero
// Node is a valid rank, so emitters set Node explicitly; -1 means
// cluster-wide, not rank-specific.
//
// The JSON form is the journal's: fixed key order, the time fields omitted
// when zero, so a journal exports without them.
type Event struct {
	// Seq is the recorder-assigned arrival number (stamped by Add; any
	// caller-provided value is overwritten).
	Seq uint64 `json:"seq"`
	// Phase says what happened: a Phase* span name or an obs.Ev* type.
	Phase string `json:"type"`
	// Tenant and Job attribute the event to one admitted submission; empty
	// and zero for spans and for server-wide events (e.g. drain).
	Tenant string `json:"tenant,omitempty"`
	Job    uint64 `json:"job,omitempty"`
	Node   int    `json:"rank"`
	Kernel string `json:"kernel,omitempty"`
	// Detail is a human-readable elaboration.  Emitters keep it a
	// deterministic function of the run (no wall-clock times, no
	// addresses), so identical runs export identical bytes.
	Detail string `json:"detail,omitempty"`
	// StartSec / DurSec are in simulated seconds.
	StartSec float64 `json:"start_sec,omitempty"`
	DurSec   float64 `json:"dur_sec,omitempty"`
}

// Recorder accumulates events; safe for concurrent use.  A nil *Recorder
// is a valid disabled recorder: every method no-ops, so "tracing off" costs
// the caller one nil check.  A recorder is unbounded by default; NewCapped
// builds one that retains only the most recent events, so long
// throughput/soak runs keep a bounded footprint.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	// Ring-buffer state (cap <= 0: unbounded).  events is used as a
	// circular buffer once full: next is the index the next Add overwrites,
	// dropped counts the overwritten (lost) events, seq is the next Seq.
	cap     int
	next    int
	dropped int64
	seq     uint64
}

// New returns an empty, unbounded recorder.
func New() *Recorder { return &Recorder{} }

// NewCapped returns a recorder that retains at most n events, dropping the
// oldest once full (a ring buffer).  Dropped events are counted and surfaced
// by Dropped() and Summary().  n <= 0 means unbounded, same as New.
func NewCapped(n int) *Recorder {
	if n <= 0 {
		return New()
	}
	return &Recorder{cap: n}
}

// Add stamps ev with the next sequence number and appends it, overwriting
// the oldest event when the recorder is capped and full.
func (r *Recorder) Add(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev.Seq = r.seq
	r.seq++
	if r.cap <= 0 || len(r.events) < r.cap {
		r.events = append(r.events, ev)
		return
	}
	r.events[r.next] = ev
	r.next = (r.next + 1) % r.cap
	r.dropped++
}

// Events returns a copy of the retained events in arrival (Seq) order.
// Timeline exports reorder them with SortEvents.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	return append(out, r.events[:r.next]...)
}

// Tail returns the most recent n retained events in arrival order (all of
// them when n <= 0 or exceeds the retained count).  This is the flight
// recorder's "recent journal window".
func (r *Recorder) Tail(n int) []Event {
	evs := r.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Len reports the retained event count.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped reports how many events a capped recorder has overwritten (always
// 0 for an unbounded recorder).
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// SortEvents sorts events in place by the deterministic timeline order:
// start time, ties broken by (Node, Phase, Kernel, Detail).  Spans arrive
// in goroutine scheduling order, and many share a simulated start time
// (every rank's partial phase starts at 0), so sorting by StartSec alone
// would leave the export order — and hence the serialized trace —
// nondeterministic across identical runs.  The full key makes the order a
// pure function of the recorded set.
func SortEvents(out []Event) {
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.StartSec != b.StartSec {
			return a.StartSec < b.StartSec
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		return a.Detail < b.Detail
	})
}

// JSON exports the retained events in arrival order (fixed field order, no
// wall-clock timestamps): identical journals yield identical bytes.
func (r *Recorder) JSON() ([]byte, error) { return ExportJSON(r.Events()) }

// Text exports the retained events as the deterministic text table.
func (r *Recorder) Text() string { return ExportText(r.Events()) }

// ExportJSON serializes events (already in the desired order) as indented
// JSON.  The Event struct's fixed field order makes the output a pure
// function of the event list.
func ExportJSON(events []Event) ([]byte, error) {
	if events == nil {
		events = []Event{}
	}
	return json.MarshalIndent(events, "", "  ")
}

// ParseEvents loads events serialized by ExportJSON.
func ParseEvents(data []byte) ([]Event, error) {
	var evs []Event
	if err := json.Unmarshal(data, &evs); err != nil {
		return nil, fmt.Errorf("trace: not an event log: %w", err)
	}
	return evs, nil
}

// ExportText renders events as a deterministic text table, one event per
// line in the given order.
func ExportText(events []Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s  %-12s  %-12s  %5s  %4s  %-18s  %s\n",
		"seq", "type", "tenant", "job", "rank", "kernel", "detail")
	for _, ev := range events {
		fmt.Fprintf(&b, "%6d  %-12s  %-12s  %5d  %4d  %-18s  %s\n",
			ev.Seq, ev.Phase, ev.Tenant, ev.Job, ev.Node, ev.Kernel, ev.Detail)
	}
	return b.String()
}

// clusterTID is the Chrome-trace thread id of the cluster-wide lane (the
// Allgather barrier and abort/timeout markers, Node == -1).
const clusterTID = 9999

// droppedMetaName is the name of the metadata event ChromeTrace emits when
// a capped recorder has overwritten events; its Detail carries the count.
const droppedMetaName = "cucc_dropped_events"

// eventArgs is the typed args payload of an exported span ("X") event, and
// the name payload of a metadata ("M") event.  A fixed struct (not a map)
// keeps the serialized key order a compile-time property.
type eventArgs struct {
	Kernel string `json:"kernel,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Name is used only by process_name/thread_name metadata events.
	Name string `json:"name,omitempty"`
}

// chromeEvent is the Chrome trace-event format ("X" complete events plus
// "M" metadata events naming the process and per-rank thread lanes).
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat,omitempty"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`  // microseconds
	Dur  float64    `json:"dur"` // microseconds
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	Args *eventArgs `json:"args,omitempty"`
}

// ChromeTrace serializes the timeline as Chrome trace-event JSON.
//
// The export opens with metadata ("M") events naming the process ("cucc
// cluster") and every thread lane ("rank 0".."rank N-1", plus "cluster" for
// the cluster-wide lane), so Perfetto shows rank names instead of bare tids.
// Metadata events are emitted in sorted tid order and span events in
// SortEvents order, keeping the output byte-deterministic for identical runs.
func (r *Recorder) ChromeTrace() ([]byte, error) {
	evs := r.Events()
	SortEvents(evs)
	// Collect the lanes in use, sorted.
	tidSet := map[int]bool{}
	for _, ev := range evs {
		tidSet[laneTID(ev.Node)] = true
	}
	tids := make([]int, 0, len(tidSet))
	for tid := range tidSet {
		tids = append(tids, tid)
	}
	sort.Ints(tids)

	out := make([]chromeEvent, 0, len(evs)+len(tids)+2)
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: &eventArgs{Name: "cucc cluster"},
	})
	if d := r.Dropped(); d > 0 {
		// A capped recorder overwrote events: the serialized trace is
		// incomplete, and any timeline analysis of it is suspect.  Record
		// the count so readers (ParseChromeDropped, cuccprof) can refuse or
		// warn instead of silently analyzing a truncated window.
		out = append(out, chromeEvent{
			Name: droppedMetaName, Ph: "M", PID: 1,
			Args: &eventArgs{Name: droppedMetaName, Detail: fmt.Sprintf("%d", d)},
		})
	}
	for _, tid := range tids {
		name := fmt.Sprintf("rank %d", tid)
		if tid == clusterTID {
			name = "cluster"
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: &eventArgs{Name: name},
		})
	}
	for _, ev := range evs {
		out = append(out, chromeEvent{
			Name: ev.Phase,
			Cat:  ev.Kernel,
			Ph:   "X",
			TS:   ev.StartSec * 1e6,
			Dur:  ev.DurSec * 1e6,
			PID:  1,
			TID:  laneTID(ev.Node),
			Args: &eventArgs{Kernel: ev.Kernel, Detail: ev.Detail},
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// laneTID maps a rank to its Chrome-trace thread lane.
func laneTID(node int) int {
	if node < 0 {
		return clusterTID
	}
	return node
}

// ParseChromeDropped imports a trace serialized by ChromeTrace back into
// events in SortEvents order, the input side of trace-file analysis
// (cuccprof), plus the recorder's dropped-event count (from the
// cucc_dropped_events metadata event, 0 when absent).  A nonzero count means
// the trace was written from a capped recorder that overwrote events: the
// timeline is incomplete and analyses over it are unreliable.  Other
// metadata events are skipped; unknown extra fields are ignored, so traces
// from newer writers still load.
func ParseChromeDropped(data []byte) ([]Event, int64, error) {
	var raw []chromeEvent
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, 0, fmt.Errorf("trace: not Chrome trace-event JSON: %w", err)
	}
	var evs []Event
	var dropped int64
	for _, ce := range raw {
		if ce.Ph == "M" && ce.Name == droppedMetaName && ce.Args != nil {
			fmt.Sscanf(ce.Args.Detail, "%d", &dropped)
			continue
		}
		if ce.Ph != "X" {
			continue
		}
		ev := Event{
			StartSec: ce.TS / 1e6,
			DurSec:   ce.Dur / 1e6,
			Node:     ce.TID,
			Phase:    ce.Name,
			Kernel:   ce.Cat,
		}
		if ce.TID == clusterTID {
			ev.Node = -1
		}
		if ce.Args != nil {
			if ce.Args.Kernel != "" {
				ev.Kernel = ce.Args.Kernel
			}
			ev.Detail = ce.Args.Detail
		}
		evs = append(evs, ev)
	}
	SortEvents(evs)
	return evs, dropped, nil
}

// Summary renders a per-phase aggregate table.
func (r *Recorder) Summary() string {
	evs := r.Events()
	SortEvents(evs)
	type agg struct {
		total float64
		count int
	}
	byPhase := map[string]*agg{}
	var order []string
	for _, ev := range evs {
		a, ok := byPhase[ev.Phase]
		if !ok {
			a = &agg{}
			byPhase[ev.Phase] = a
			order = append(order, ev.Phase)
		}
		a.total += ev.DurSec
		a.count++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events\n", len(evs))
	for _, ph := range order {
		a := byPhase[ph]
		fmt.Fprintf(&b, "  %-26s %5d spans  %10.3f ms total\n", ph, a.count, a.total*1e3)
	}
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&b, "  (%d older events dropped: ring capacity %d)\n", d, r.cap)
	}
	return b.String()
}
