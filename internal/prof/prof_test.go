package prof

import (
	"encoding/json"
	"strings"
	"testing"

	"cucc/internal/core"
	"cucc/internal/trace"
)

// skewedRun builds the canonical synthetic diagnosis input: a 4-rank
// three-phase launch where rank 2's partial phase is 3x slower than its
// peers and the Allgather dominates everything.
//
//	partial:   ranks 0,1,3 take 10ms; rank 2 takes 30ms
//	allgather: 50ms, starting when rank 2 finishes
//	callback:  5ms on every rank
func skewedRun() []trace.Event {
	evs := []trace.Event{}
	for r := 0; r < 4; r++ {
		dur := 0.010
		if r == 2 {
			dur = 0.030
		}
		evs = append(evs, trace.Event{StartSec: 0, DurSec: dur, Node: r,
			Phase: trace.PhasePartial, Kernel: "k"})
	}
	evs = append(evs, trace.Event{StartSec: 0.030, DurSec: 0.050, Node: -1,
		Phase: trace.PhaseAllgather, Kernel: "k", Detail: "1 MB/node"})
	for r := 0; r < 4; r++ {
		evs = append(evs, trace.Event{StartSec: 0.080, DurSec: 0.005, Node: r,
			Phase: trace.PhaseCallback, Kernel: "k"})
	}
	return evs
}

func TestAnalyzeSkewedRun(t *testing.T) {
	stats := &core.Stats{
		Distributed:   true,
		BlocksByNode:  []int{8, 8, 24, 8},
		BlocksPerNode: 24,
		Phase1Sec:     0.030,
		CommSec:       0.050,
		CallbackSec:   0.005,
		TotalSec:      0.085,
	}
	rep := Analyze(skewedRun(), stats)

	if rep.Ranks != 4 {
		t.Fatalf("ranks = %d, want 4", rep.Ranks)
	}
	if rep.StragglerNode != 2 {
		t.Errorf("straggler = rank %d, want rank 2", rep.StragglerNode)
	}
	if rep.BoundPhase != trace.PhaseAllgather {
		t.Errorf("bound phase = %q, want %q", rep.BoundPhase, trace.PhaseAllgather)
	}

	// Critical path: rank 2's partial (the segment bound), the barrier,
	// then the first callback rank in tie order.
	if len(rep.CriticalPath) != 3 {
		t.Fatalf("critical path has %d steps: %+v", len(rep.CriticalPath), rep.CriticalPath)
	}
	if s := rep.CriticalPath[0]; s.Phase != trace.PhasePartial || s.Node != 2 {
		t.Errorf("path[0] = %+v, want rank 2 partial", s)
	}
	if s := rep.CriticalPath[1]; s.Phase != trace.PhaseAllgather || s.Node != -1 {
		t.Errorf("path[1] = %+v, want allgather", s)
	}
	if s := rep.CriticalPath[2]; s.Phase != trace.PhaseCallback {
		t.Errorf("path[2] = %+v, want callback", s)
	}
	if got, want := rep.CriticalPathSec, 0.085; !close2(got, want) {
		t.Errorf("critical path = %g s, want %g", got, want)
	}

	// Every non-straggler waited 20ms at the barrier; rank 2 waited 0.
	for _, rs := range rep.RankStats {
		want := 0.020
		if rs.Node == 2 {
			want = 0
		}
		if !close2(rs.WaitSec, want) {
			t.Errorf("rank %d wait = %g, want %g", rs.Node, rs.WaitSec, want)
		}
	}
	// Block counts flow through from stats.
	if rep.RankStats[2].Blocks != 24 || rep.RankStats[0].Blocks != 8 {
		t.Errorf("block counts not taken from stats: %+v", rep.RankStats)
	}

	// What-if: balancing phase 1 turns 30ms into mean(10,10,30,10)=15ms.
	if got, want := rep.WhatIf.BalancedSec, 0.015+0.050+0.005; !close2(got, want) {
		t.Errorf("balanced = %g, want %g", got, want)
	}
	if got, want := rep.WhatIf.ZeroCommSec, 0.035; !close2(got, want) {
		t.Errorf("zero-comm = %g, want %g", got, want)
	}

	// Phase skew: partial max/mean = 30 / 15 = 2.0.
	for _, ps := range rep.Phases {
		if ps.Phase == trace.PhasePartial {
			if !close2(ps.Skew, 2.0) {
				t.Errorf("partial skew = %g, want 2.0", ps.Skew)
			}
			if ps.MaxNode != 2 {
				t.Errorf("partial max node = %d, want 2", ps.MaxNode)
			}
		}
	}
}

// TestSkewedRunTableAndJSON: the acceptance check — both renderings name
// the injected straggler rank and the allgather-bound phase.
func TestSkewedRunTableAndJSON(t *testing.T) {
	rep := Analyze(skewedRun(), nil)

	table := rep.Table()
	for _, want := range []string{"straggler: rank 2", "bound by: allgather", "<- straggler"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}

	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		BoundPhase    string `json:"bound_phase"`
		StragglerNode int    `json:"straggler_node"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.StragglerNode != 2 {
		t.Errorf("JSON straggler_node = %d, want 2", parsed.StragglerNode)
	}
	if parsed.BoundPhase != "allgather" {
		t.Errorf("JSON bound_phase = %q, want allgather", parsed.BoundPhase)
	}
}

// TestAnalyzeFromSerializedTrace: the diagnosis is identical when the
// events round-trip through the Chrome trace format (the cuccprof -trace
// path).
func TestAnalyzeFromSerializedTrace(t *testing.T) {
	r := trace.New()
	for _, ev := range skewedRun() {
		r.Add(ev)
	}
	raw, err := r.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	evs, _, err := trace.ParseChromeDropped(raw)
	if err != nil {
		t.Fatal(err)
	}
	direct := Analyze(skewedRun(), nil)
	imported := Analyze(evs, nil)
	dj, _ := direct.JSON()
	ij, _ := imported.JSON()
	if string(dj) != string(ij) {
		t.Errorf("diagnosis differs after trace round-trip:\n%s\nvs\n%s", dj, ij)
	}
}

// TestAnalyzeMultiLaunch: repeated launches produce multiple barriers; the
// segment walk must chain them all.
func TestAnalyzeMultiLaunch(t *testing.T) {
	evs := []trace.Event{}
	t0 := 0.0
	for launch := 0; launch < 3; launch++ {
		for r := 0; r < 2; r++ {
			dur := 0.010 * float64(r+1) // rank 1 is always slower
			evs = append(evs, trace.Event{StartSec: t0, DurSec: dur, Node: r,
				Phase: trace.PhasePartial, Kernel: "k"})
		}
		evs = append(evs, trace.Event{StartSec: t0 + 0.020, DurSec: 0.005, Node: -1,
			Phase: trace.PhaseAllgather, Kernel: "k"})
		t0 += 0.025
	}
	rep := Analyze(evs, nil)
	if rep.StragglerNode != 1 {
		t.Errorf("straggler = %d, want 1", rep.StragglerNode)
	}
	// Path: 3 x (rank-1 partial + barrier).
	if len(rep.CriticalPath) != 6 {
		t.Errorf("path has %d steps, want 6: %+v", len(rep.CriticalPath), rep.CriticalPath)
	}
	if !close2(rep.CriticalPathSec, 3*0.025) {
		t.Errorf("path time = %g, want %g", rep.CriticalPathSec, 3*0.025)
	}
	// Rank 0 waits 10ms per segment.
	if !close2(rep.RankStats[0].WaitSec, 0.030) {
		t.Errorf("rank 0 wait = %g, want 0.030", rep.RankStats[0].WaitSec)
	}
}

// TestAnalyzeIgnoresWorkerSpans: PhaseWorker sub-spans detail a rank span
// that is already counted; including them would double-count busy time.
func TestAnalyzeIgnoresWorkerSpans(t *testing.T) {
	evs := skewedRun()
	evs = append(evs, trace.Event{StartSec: 0, DurSec: 0.030, Node: 2,
		Phase: trace.PhaseWorker, Kernel: "k", Detail: "worker 0/2: 12 blocks"})
	base := Analyze(skewedRun(), nil)
	with := Analyze(evs, nil)
	if base.RankStats[2].BusySec != with.RankStats[2].BusySec {
		t.Errorf("worker span changed busy time: %g vs %g",
			base.RankStats[2].BusySec, with.RankStats[2].BusySec)
	}
	if len(base.CriticalPath) != len(with.CriticalPath) {
		t.Error("worker span changed the critical path")
	}
}

// TestAnalyzeFailures: abort markers surface in the report and the table.
func TestAnalyzeFailures(t *testing.T) {
	evs := []trace.Event{
		{StartSec: 0, DurSec: 0.010, Node: 0, Phase: trace.PhasePartial, Kernel: "k"},
		{StartSec: 0.010, Node: -1, Phase: trace.PhaseAbort, Kernel: "k", Detail: "node 1: divide by zero"},
	}
	rep := Analyze(evs, nil)
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "divide by zero") {
		t.Fatalf("failures = %v", rep.Failures)
	}
	if !strings.Contains(rep.Table(), "RUN FAILED") {
		t.Error("table does not flag the failed run")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	rep := Analyze(nil, nil)
	if rep.Ranks != 0 || len(rep.CriticalPath) != 0 {
		t.Errorf("empty analysis not empty: %+v", rep)
	}
	if rep.Table() == "" {
		t.Error("empty report renders nothing")
	}
}

func TestWhatIfFromStats(t *testing.T) {
	st := &core.Stats{
		Distributed:   true,
		BlocksByNode:  []int{8, 8, 24, 8},
		BlocksPerNode: 24,
		Phase1Sec:     0.030,
		CommSec:       0.050,
		CallbackSec:   0.005,
		TotalSec:      0.085,
	}
	w := WhatIfFromStats(st)
	// Balanced phase 1: 30ms * mean(12)/max(24) = 15ms.
	if want := 0.085 - 0.030 + 0.015; !close2(w.BalancedSec, want) {
		t.Errorf("balanced = %g, want %g", w.BalancedSec, want)
	}
	if want := 0.035; !close2(w.ZeroCommSec, want) {
		t.Errorf("zero-comm = %g, want %g", w.ZeroCommSec, want)
	}
	if w.BalancedSpeedup <= 1 || w.ZeroCommSpeedup <= 1 {
		t.Errorf("speedups should exceed 1: %+v", w)
	}
}

func close2(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
