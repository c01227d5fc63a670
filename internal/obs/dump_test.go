package obs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cucc/internal/metrics"
	"cucc/internal/trace"
)

func dumpFixture() *Dump {
	reg := metrics.New()
	reg.Counter("recovery.restores").Inc()
	return &Dump{
		Schema: DumpSchemaVersion,
		Reason: DumpReasonRecovery,
		Tenant: "tenant-a",
		Job:    7,
		What:   "source:vecadd",
		Journal: []Event{
			{Seq: 1, Phase: EvAdmit, Tenant: "tenant-a", Job: 7, Node: -1},
			{Seq: 2, Phase: EvRankLoss, Tenant: "tenant-a", Job: 7, Node: 1, Detail: "lost nodes [1], 3 survivors"},
		},
		Metrics: reg.Snapshot(),
		Trace: []Event{
			{Seq: 4, Phase: trace.PhaseRecovery, Node: -1, Kernel: "vecadd", StartSec: 0.25, Detail: "restore @start"},
			{Seq: 3, Phase: trace.PhaseLaunch, Node: 1, Kernel: "vecadd", StartSec: 0.5, DurSec: 0.01},
		},
		TraceDropped: 2,
	}
}

// TestDumpRoundTrip: JSON and ParseDump invert each other, journal and
// trace events alike (one event record for both).
func TestDumpRoundTrip(t *testing.T) {
	d := dumpFixture()
	raw, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseDump(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != d.Reason || got.Tenant != d.Tenant || got.Job != d.Job || got.What != d.What {
		t.Errorf("metadata diverged: %+v", got)
	}
	if !reflect.DeepEqual(got.Journal, d.Journal) {
		t.Errorf("journal window diverged: %+v", got.Journal)
	}
	if !reflect.DeepEqual(got.Trace, d.Trace) || got.TraceDropped != 2 {
		t.Errorf("trace window diverged: %+v, %d dropped", got.Trace, got.TraceDropped)
	}
	if got.Metrics.Counters["recovery.restores"] != 1 {
		t.Errorf("metrics snapshot diverged: %+v", got.Metrics.Counters)
	}
}

// TestParseDumpRejects: dumps of another schema — a newer one, or v1, whose
// trace keys would decode to zeros — reason-less JSON, and garbage are all
// refused with telling errors.
func TestParseDumpRejects(t *testing.T) {
	for _, v := range []int{99, 1} {
		raw := fmt.Sprintf(`{"schema_version": %d, "reason": "failure", "trace": [{"Phase": "launch-overhead", "DurSec": 0.01}]}`, v)
		_, err := ParseDump([]byte(raw))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("v%d", v)) || !strings.Contains(err.Error(), fmt.Sprintf("v%d", DumpSchemaVersion)) {
			t.Errorf("schema v%d: err = %v, want a refusal naming both versions", v, err)
		}
	}
	if _, err := ParseDump([]byte(fmt.Sprintf(`{"schema_version": %d}`, DumpSchemaVersion))); err == nil || !strings.Contains(err.Error(), "reason") {
		t.Errorf("missing reason: err = %v, want reason refusal", err)
	}
	if _, err := ParseDump([]byte("not json")); err == nil {
		t.Error("garbage accepted as a dump")
	}
}
