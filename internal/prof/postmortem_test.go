package prof

import (
	"encoding/json"
	"strings"
	"testing"

	"cucc/internal/metrics"
	"cucc/internal/obs"
	"cucc/internal/trace"
)

func postmortemFixture() *obs.Dump {
	reg := metrics.New()
	reg.Counter("recovery.restores").Inc()
	reg.Counter("recovery.checkpoints").Add(2)
	reg.Counter("core.launch.total").Inc()
	reg.Counter("comm.allgather.msgs").Add(12) // below the highlight prefixes
	return &obs.Dump{
		Schema: obs.DumpSchemaVersion,
		Reason: obs.DumpReasonFailure,
		Tenant: "tenant-a",
		Job:    42,
		What:   "source:vecadd",
		Err:    "serve: job deadline exceeded",
		Journal: []obs.Event{
			{Seq: 10, Phase: obs.EvAdmit, Tenant: "tenant-a", Job: 42, Node: -1, Kernel: "vecadd"},
			{Seq: 11, Phase: obs.EvDispatch, Tenant: "tenant-a", Job: 42, Node: -1, Kernel: "vecadd"},
			{Seq: 12, Phase: obs.EvRankLoss, Tenant: "tenant-a", Job: 42, Node: 1, Kernel: "vecadd",
				Detail: "lost nodes [1], 3 survivors"},
			{Seq: 13, Phase: obs.EvRestore, Tenant: "tenant-a", Job: 42, Node: -1, Kernel: "vecadd",
				Detail: "restore @phase1 (4096 bytes), replaying over 3 ranks"},
		},
		Metrics: reg.Snapshot(),
		Trace: []trace.Event{
			{Phase: trace.PhaseLaunch, Node: -1, Kernel: "vecadd", StartSec: 0, DurSec: 0.001},
			{Phase: trace.PhasePartial, Node: 0, Kernel: "vecadd", StartSec: 0.001, DurSec: 0.01},
			{Phase: trace.PhaseRecovery, Node: -1, Kernel: "vecadd", StartSec: 0.011, DurSec: 0.002,
				Detail: "restore @phase1"},
		},
		TraceDropped: 0,
	}
}

// TestAnalyzePostmortem: the report carries the dump, diagnoses its trace
// window, and renders a timeline naming the failure chain and the recovery
// counters.
func TestAnalyzePostmortem(t *testing.T) {
	rep := AnalyzePostmortem(postmortemFixture())
	if rep.Diagnosis == nil {
		t.Fatal("no trace diagnosis despite a non-empty trace window")
	}
	table := rep.Table()
	for _, want := range []string{
		"post-mortem: job 42", "tenant-a", "failure",
		"deadline exceeded",
		"event timeline", "rank-loss", "lost nodes [1]", "restore @phase1",
		"recovery.restores", "core.launch.total",
		"trace diagnosis",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("post-mortem table missing %q:\n%s", want, table)
		}
	}
	// Only the recovery/launch counters are highlighted; raw comm traffic
	// belongs to the trace diagnosis, not the counter list.
	if strings.Contains(table, "comm.allgather.msgs") {
		t.Errorf("post-mortem table leaks non-highlighted counters:\n%s", table)
	}
}

// TestAnalyzePostmortemNoTrace: a dump with no trace window still renders
// the timeline, with no diagnosis section.
func TestAnalyzePostmortemNoTrace(t *testing.T) {
	d := postmortemFixture()
	d.Trace = nil
	rep := AnalyzePostmortem(d)
	if rep.Diagnosis != nil {
		t.Error("diagnosis fabricated from an empty trace")
	}
	table := rep.Table()
	if !strings.Contains(table, "event timeline") || strings.Contains(table, "trace diagnosis") {
		t.Errorf("traceless rendering wrong:\n%s", table)
	}
	d.Journal = nil
	if got := AnalyzePostmortem(d).Table(); !strings.Contains(got, "no journal events captured") {
		t.Errorf("journal-less rendering wrong:\n%s", got)
	}
}

// TestPostmortemJSON: the JSON form round-trips the dump and diagnosis.
func TestPostmortemJSON(t *testing.T) {
	raw, err := AnalyzePostmortem(postmortemFixture()).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back PostmortemReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Dump == nil || back.Dump.Job != 42 || back.Diagnosis == nil {
		t.Errorf("round trip lost content: %+v", back)
	}
}
