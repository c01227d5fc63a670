// Package prof turns recorded execution timelines (internal/trace) and run
// statistics (core.Stats) into a performance diagnosis: the critical path
// through the three-phase distributed workflow, per-phase load-imbalance and
// straggler attribution, and what-if estimates for the two levers the paper
// cares about (block balance and Allgather cost).
//
// The analysis consumes the same events the Chrome trace export carries, so
// it works identically on a live Recorder and on a trace file re-imported
// with trace.ParseChromeDropped — cuccprof uses both paths.
package prof

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"cucc/internal/core"
	"cucc/internal/trace"
)

// PathStep is one span on the critical path.
type PathStep struct {
	Phase    string  `json:"phase"`
	Node     int     `json:"node"` // -1 for cluster-wide (allgather)
	StartSec float64 `json:"start_sec"`
	DurSec   float64 `json:"dur_sec"`
	Kernel   string  `json:"kernel,omitempty"`
}

// PhaseStat aggregates one phase across all ranks and launches.
type PhaseStat struct {
	Phase    string  `json:"phase"`
	Spans    int     `json:"spans"`
	TotalSec float64 `json:"total_sec"`
	MeanSec  float64 `json:"mean_sec"`
	P50Sec   float64 `json:"p50_sec"`
	MaxSec   float64 `json:"max_sec"`
	// MaxNode is the rank owning the longest span (-1 for cluster-wide).
	MaxNode int `json:"max_node"`
	// Skew is MaxSec/MeanSec: 1.0 is perfectly balanced; the paper's
	// RemainderImbalanced partitioning shows up here directly.
	Skew float64 `json:"skew"`
	// PathSec is how much critical-path time this phase contributes.
	PathSec float64 `json:"path_sec"`
}

// RankStat describes one rank's share of the run.
type RankStat struct {
	Node    int     `json:"node"`
	Spans   int     `json:"spans"`
	BusySec float64 `json:"busy_sec"`
	// WaitSec is the slack this rank accumulated waiting at Allgather
	// barriers for slower peers (0 for the rank that bounds every segment).
	WaitSec float64 `json:"wait_sec"`
	// PathSec is the critical-path time attributed to this rank.
	PathSec float64 `json:"path_sec"`
	// Blocks is the phase-1 block count from core.Stats (-1 if unknown,
	// i.e. the analysis ran from a trace file without stats).
	Blocks int `json:"blocks"`
}

// WhatIf estimates the makespan under two idealizations, mirroring the
// decomposition core.Estimate uses (phase sums, barriers between them).
type WhatIf struct {
	ActualSec float64 `json:"actual_sec"`
	// BalancedSec replaces every inter-barrier segment's bounding-rank time
	// with the mean over ranks: the makespan under perfect block balance.
	BalancedSec     float64 `json:"balanced_sec"`
	BalancedSpeedup float64 `json:"balanced_speedup"`
	// ZeroCommSec removes the Allgather barriers entirely: the makespan
	// under free communication.
	ZeroCommSec     float64 `json:"zero_comm_sec"`
	ZeroCommSpeedup float64 `json:"zero_comm_speedup"`
}

// Report is the full diagnosis.
type Report struct {
	Kernels  []string `json:"kernels"`
	Ranks    int      `json:"ranks"`
	TotalSec float64  `json:"total_sec"`

	CriticalPath    []PathStep `json:"critical_path"`
	CriticalPathSec float64    `json:"critical_path_sec"`
	// BoundPhase is the phase holding the largest share of the critical
	// path ("allgather" means the run is communication-bound).
	BoundPhase string `json:"bound_phase"`
	// StragglerNode is the rank bounding the most critical-path time
	// (-1 when no rank span is on the path).
	StragglerNode int `json:"straggler_node"`

	Phases    []PhaseStat `json:"phases"`
	RankStats []RankStat  `json:"rank_stats"`

	WhatIf WhatIf `json:"what_if"`

	// Failures carries abort/timeout markers verbatim (empty for clean
	// runs); a non-empty list means the timing figures describe a run that
	// did not complete.
	Failures []string `json:"failures,omitempty"`

	// DroppedEvents is the number of events a capped recorder overwrote
	// before the timeline was analyzed (see trace.NewCapped).  Nonzero
	// means the critical path, bound phase, and straggler figures describe
	// only the retained window — they may be confidently wrong about the
	// full run.
	DroppedEvents int64 `json:"dropped_events,omitempty"`
}

// segment is one inter-barrier window of rank activity: every rank works
// [startSec, its chain end], then the next barrier starts when the slowest
// rank finishes.
type segment struct {
	startSec float64
	rankEnd  map[int]float64 // rank -> end of its span chain
	rankBusy map[int]float64 // rank -> sum of span durations
	spans    map[int][]trace.Event
	barrier  *trace.Event // the Allgather closing the segment (nil for tail)
}

// Analyze diagnoses a recorded timeline.  stats may be nil (e.g. when the
// events came from a trace file); when present it supplies per-rank block
// counts and the model-based what-if refinement.
func Analyze(events []trace.Event, stats *core.Stats) *Report {
	trace.SortEvents(events)

	rep := &Report{StragglerNode: -1}
	kernels := map[string]bool{}
	var rankEvents []trace.Event
	var barriers []trace.Event
	maxEnd := 0.0
	for _, ev := range events {
		if ev.Kernel != "" && !kernels[ev.Kernel] {
			kernels[ev.Kernel] = true
			rep.Kernels = append(rep.Kernels, ev.Kernel)
		}
		if end := ev.StartSec + ev.DurSec; end > maxEnd {
			maxEnd = end
		}
		switch ev.Phase {
		case trace.PhaseWorker:
			// Sub-spans of a partial/callback phase: they detail a rank
			// span already counted, so they stay out of the path math.
			continue
		case trace.PhaseAbort, trace.PhaseTimeout:
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %s", ev.Phase, ev.Detail))
			continue
		}
		if ev.Node < 0 {
			barriers = append(barriers, ev)
		} else {
			rankEvents = append(rankEvents, ev)
			if ev.Node+1 > rep.Ranks {
				rep.Ranks = ev.Node + 1
			}
		}
	}
	sort.Strings(rep.Kernels)
	rep.TotalSec = maxEnd
	if len(rankEvents) == 0 && len(barriers) == 0 {
		return rep
	}

	segs := segmentize(rankEvents, barriers)
	rep.buildPath(segs)
	rep.phaseStats(rankEvents, barriers)
	rep.rankStats(rankEvents, segs, stats)
	rep.whatIf(segs, barriers, stats)
	return rep
}

// segmentize partitions rank events into inter-barrier windows.  Barrier i
// closes segment i; events starting at or after barrier i's end belong to
// segment i+1.  The simulator never overlaps rank work with a barrier (the
// Allgather starts at the cluster-wide max clock), so assignment by start
// time is exact.
func segmentize(rankEvents, barriers []trace.Event) []*segment {
	newSeg := func(start float64) *segment {
		return &segment{
			startSec: start,
			rankEnd:  map[int]float64{},
			rankBusy: map[int]float64{},
			spans:    map[int][]trace.Event{},
		}
	}
	segs := []*segment{newSeg(0)}
	for i := range barriers {
		b := barriers[i]
		segs[len(segs)-1].barrier = &b
		segs = append(segs, newSeg(b.StartSec+b.DurSec))
	}
	for _, ev := range rankEvents {
		// Find the segment whose window contains the event start: the
		// first whose closing barrier ends after it.
		idx := sort.Search(len(segs)-1, func(i int) bool {
			b := segs[i].barrier
			return ev.StartSec < b.StartSec+b.DurSec
		})
		s := segs[idx]
		s.spans[ev.Node] = append(s.spans[ev.Node], ev)
		s.rankBusy[ev.Node] += ev.DurSec
		if end := ev.StartSec + ev.DurSec; end > s.rankEnd[ev.Node] {
			s.rankEnd[ev.Node] = end
		}
	}
	// Drop an empty tail segment (run ended on a barrier).
	if last := segs[len(segs)-1]; last.barrier == nil && len(last.spans) == 0 {
		segs = segs[:len(segs)-1]
	}
	return segs
}

// boundingRank picks the rank whose chain ends last (ties go to the lowest
// rank, keeping the report deterministic).  Returns -1 for an empty segment.
func (s *segment) boundingRank() int {
	bound, boundEnd := -1, math.Inf(-1)
	ranks := make([]int, 0, len(s.rankEnd))
	for r := range s.rankEnd {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		if end := s.rankEnd[r]; end > boundEnd {
			bound, boundEnd = r, end
		}
	}
	return bound
}

// buildPath walks the segments, chaining each segment's bounding rank into
// the closing barrier, and derives BoundPhase and StragglerNode.
func (r *Report) buildPath(segs []*segment) {
	phaseSec := map[string]float64{}
	rankSec := map[int]float64{}
	for _, s := range segs {
		if bound := s.boundingRank(); bound >= 0 {
			for _, ev := range s.spans[bound] {
				r.CriticalPath = append(r.CriticalPath, PathStep{
					Phase: ev.Phase, Node: ev.Node,
					StartSec: ev.StartSec, DurSec: ev.DurSec, Kernel: ev.Kernel,
				})
				phaseSec[ev.Phase] += ev.DurSec
				rankSec[ev.Node] += ev.DurSec
				r.CriticalPathSec += ev.DurSec
			}
		}
		if b := s.barrier; b != nil {
			r.CriticalPath = append(r.CriticalPath, PathStep{
				Phase: b.Phase, Node: -1,
				StartSec: b.StartSec, DurSec: b.DurSec, Kernel: b.Kernel,
			})
			phaseSec[b.Phase] += b.DurSec
			r.CriticalPathSec += b.DurSec
		}
	}
	best := math.Inf(-1)
	for _, ph := range sortedKeys(phaseSec) {
		if sec := phaseSec[ph]; sec > best {
			best, r.BoundPhase = sec, ph
		}
	}
	best = math.Inf(-1)
	for _, rk := range sortedIntKeys(rankSec) {
		if sec := rankSec[rk]; sec > best {
			best, r.StragglerNode = sec, rk
		}
	}
}

func (r *Report) phaseStats(rankEvents, barriers []trace.Event) {
	byPhase := map[string][]trace.Event{}
	for _, ev := range rankEvents {
		byPhase[ev.Phase] = append(byPhase[ev.Phase], ev)
	}
	for _, ev := range barriers {
		byPhase[ev.Phase] = append(byPhase[ev.Phase], ev)
	}
	pathSec := map[string]float64{}
	for _, st := range r.CriticalPath {
		pathSec[st.Phase] += st.DurSec
	}
	for _, ph := range sortedKeys(byPhase) {
		evs := byPhase[ph]
		durs := make([]float64, len(evs))
		ps := PhaseStat{Phase: ph, Spans: len(evs), MaxNode: -1, PathSec: pathSec[ph]}
		for i, ev := range evs {
			durs[i] = ev.DurSec
			ps.TotalSec += ev.DurSec
			if ev.DurSec > ps.MaxSec || (ev.DurSec == ps.MaxSec && ps.MaxNode == -1) {
				ps.MaxSec, ps.MaxNode = ev.DurSec, ev.Node
			}
		}
		ps.MeanSec = ps.TotalSec / float64(len(evs))
		sort.Float64s(durs)
		ps.P50Sec = durs[len(durs)/2]
		if ps.MeanSec > 0 {
			ps.Skew = ps.MaxSec / ps.MeanSec
		}
		r.Phases = append(r.Phases, ps)
	}
	// Largest total first: the table reads top-down by importance.
	sort.SliceStable(r.Phases, func(i, j int) bool {
		return r.Phases[i].TotalSec > r.Phases[j].TotalSec
	})
}

func (r *Report) rankStats(rankEvents []trace.Event, segs []*segment, stats *core.Stats) {
	if r.Ranks == 0 {
		return
	}
	rs := make([]RankStat, r.Ranks)
	for i := range rs {
		rs[i] = RankStat{Node: i, Blocks: -1}
		if stats != nil && i < len(stats.BlocksByNode) {
			rs[i].Blocks = stats.BlocksByNode[i]
		}
	}
	for _, ev := range rankEvents {
		rs[ev.Node].Spans++
		rs[ev.Node].BusySec += ev.DurSec
	}
	for _, s := range segs {
		bound := s.boundingRank()
		if bound < 0 {
			continue
		}
		boundEnd := s.rankEnd[bound]
		for rk, end := range s.rankEnd {
			rs[rk].WaitSec += boundEnd - end
		}
	}
	for _, st := range r.CriticalPath {
		if st.Node >= 0 {
			rs[st.Node].PathSec += st.DurSec
		}
	}
	r.RankStats = rs
}

// whatIf derives the idealized makespans from the segments; when stats are
// available the same decomposition is cross-checked against the model via
// WhatIfFromStats by callers that want it (cuccprof -prog mode).
func (r *Report) whatIf(segs []*segment, barriers []trace.Event, stats *core.Stats) {
	w := WhatIf{ActualSec: r.CriticalPathSec}
	barrierSec := 0.0
	for _, b := range barriers {
		barrierSec += b.DurSec
	}
	balanced := 0.0
	for _, s := range segs {
		if len(s.rankBusy) > 0 {
			sum := 0.0
			for _, busy := range s.rankBusy {
				sum += busy
			}
			balanced += sum / float64(len(s.rankBusy))
		}
	}
	w.BalancedSec = balanced + barrierSec
	w.ZeroCommSec = r.CriticalPathSec - barrierSec
	if w.BalancedSec > 0 {
		w.BalancedSpeedup = w.ActualSec / w.BalancedSec
	}
	if w.ZeroCommSec > 0 {
		w.ZeroCommSpeedup = w.ActualSec / w.ZeroCommSec
	}
	r.WhatIf = w
}

// WhatIfFromStats computes the same idealizations from a launch's Stats
// alone, using the phase decomposition core.Estimate models (phase-1 bounded
// by the fullest rank, barriers between phases).  It lets cuccprof attach a
// model-based what-if when it ran the program itself and has no need to
// re-derive segment structure from events.
func WhatIfFromStats(st *core.Stats) WhatIf {
	w := WhatIf{ActualSec: st.TotalSec}
	p1Balanced := st.Phase1Sec
	if n := len(st.BlocksByNode); n > 0 && st.BlocksPerNode > 0 {
		sum := 0
		for _, c := range st.BlocksByNode {
			sum += c
		}
		p1Balanced = st.Phase1Sec * (float64(sum) / float64(n)) / float64(st.BlocksPerNode)
	}
	w.BalancedSec = st.TotalSec - st.Phase1Sec + p1Balanced
	w.ZeroCommSec = st.TotalSec - st.CommSec
	if w.BalancedSec > 0 {
		w.BalancedSpeedup = w.ActualSec / w.BalancedSec
	}
	if w.ZeroCommSec > 0 {
		w.ZeroCommSpeedup = w.ActualSec / w.ZeroCommSec
	}
	return w
}

// JSON serializes the report (indented, key order fixed by the struct).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the human-readable diagnosis.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== cucc diagnosis: %s ===\n", strings.Join(r.Kernels, ", "))
	fmt.Fprintf(&b, "ranks %d   makespan %s   critical path %s\n",
		r.Ranks, fmtSec(r.TotalSec), fmtSec(r.CriticalPathSec))
	if len(r.Failures) > 0 {
		fmt.Fprintf(&b, "RUN FAILED — figures describe a partial run:\n")
		for _, f := range r.Failures {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}
	if r.DroppedEvents > 0 {
		fmt.Fprintf(&b, "WARNING — trace truncated: %d events were dropped by the capped recorder;\n", r.DroppedEvents)
		fmt.Fprintf(&b, "  figures describe only the retained window, not the full run\n")
	}
	if r.BoundPhase != "" {
		fmt.Fprintf(&b, "bound by: %s", r.BoundPhase)
		if r.StragglerNode >= 0 {
			fmt.Fprintf(&b, "   straggler: rank %d", r.StragglerNode)
		}
		b.WriteString("\n")
	}

	if len(r.CriticalPath) > 0 {
		b.WriteString("\ncritical path:\n")
		for _, st := range r.CriticalPath {
			who := "cluster"
			if st.Node >= 0 {
				who = fmt.Sprintf("rank %d", st.Node)
			}
			share := 0.0
			if r.CriticalPathSec > 0 {
				share = 100 * st.DurSec / r.CriticalPathSec
			}
			fmt.Fprintf(&b, "  %10s  %-26s %12s  %5.1f%%\n", who, st.Phase, fmtSec(st.DurSec), share)
		}
	}

	if len(r.Phases) > 0 {
		b.WriteString("\nphases (all spans):\n")
		fmt.Fprintf(&b, "  %-26s %5s %12s %12s %12s %6s %8s\n",
			"phase", "spans", "mean", "p50", "max", "skew", "on-path")
		for _, ps := range r.Phases {
			maxWho := "cluster"
			if ps.MaxNode >= 0 {
				maxWho = fmt.Sprintf("r%d", ps.MaxNode)
			}
			fmt.Fprintf(&b, "  %-26s %5d %12s %12s %12s %5.2fx %8s  (max: %s)\n",
				ps.Phase, ps.Spans, fmtSec(ps.MeanSec), fmtSec(ps.P50Sec),
				fmtSec(ps.MaxSec), ps.Skew, fmtSec(ps.PathSec), maxWho)
		}
	}

	if len(r.RankStats) > 0 {
		b.WriteString("\nranks:\n")
		fmt.Fprintf(&b, "  %-6s %7s %12s %12s %12s\n", "rank", "blocks", "busy", "barrier-wait", "on-path")
		for _, rs := range r.RankStats {
			blocks := "-"
			if rs.Blocks >= 0 {
				blocks = fmt.Sprintf("%d", rs.Blocks)
			}
			tag := ""
			if rs.Node == r.StragglerNode {
				tag = "  <- straggler"
			}
			fmt.Fprintf(&b, "  %-6d %7s %12s %12s %12s%s\n",
				rs.Node, blocks, fmtSec(rs.BusySec), fmtSec(rs.WaitSec), fmtSec(rs.PathSec), tag)
		}
	}

	w := r.WhatIf
	if w.ActualSec > 0 {
		b.WriteString("\nwhat-if:\n")
		fmt.Fprintf(&b, "  perfect block balance: %12s  (%.2fx)\n", fmtSec(w.BalancedSec), w.BalancedSpeedup)
		fmt.Fprintf(&b, "  zero-cost allgather:   %12s  (%.2fx)\n", fmtSec(w.ZeroCommSec), w.ZeroCommSpeedup)
	}
	return b.String()
}

func fmtSec(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.3f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3f ms", s*1e3)
	default:
		return fmt.Sprintf("%.1f us", s*1e6)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedIntKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
