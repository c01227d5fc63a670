package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cucc/internal/trace"
)

// writeSkewedTrace serializes the canonical synthetic diagnosis input: a
// 4-rank run where rank 2's partial phase is 3x slower and the Allgather
// dominates, as a Chrome trace file.
func writeSkewedTrace(t *testing.T) string {
	t.Helper()
	r := trace.New()
	for rank := 0; rank < 4; rank++ {
		dur := 0.010
		if rank == 2 {
			dur = 0.030
		}
		r.Add(trace.Event{StartSec: 0, DurSec: dur, Node: rank,
			Phase: trace.PhasePartial, Kernel: "k"})
	}
	r.Add(trace.Event{StartSec: 0.030, DurSec: 0.050, Node: -1,
		Phase: trace.PhaseAllgather, Kernel: "k"})
	for rank := 0; rank < 4; rank++ {
		r.Add(trace.Event{StartSec: 0.080, DurSec: 0.005, Node: rank,
			Phase: trace.PhaseCallback, Kernel: "k"})
	}
	raw, err := r.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "skewed.trace.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiagnoseSkewedTraceFile is the CLI acceptance check: diagnosing a
// synthetic skewed 4-node run names the injected straggler rank and the
// allgather-bound phase in both the table and the JSON output.
func TestDiagnoseSkewedTraceFile(t *testing.T) {
	path := writeSkewedTrace(t)
	rep, snap, err := diagnoseTraceFile(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Error("snapshot without -metrics")
	}

	table := rep.Table()
	for _, want := range []string{"straggler: rank 2", "bound by: allgather"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}

	raw, err := json.Marshal(diagnosisOutput{Diagnosis: rep})
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Diagnosis struct {
			BoundPhase    string `json:"bound_phase"`
			StragglerNode int    `json:"straggler_node"`
			Ranks         int    `json:"ranks"`
		} `json:"diagnosis"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Diagnosis.StragglerNode != 2 {
		t.Errorf("JSON straggler_node = %d, want 2", parsed.Diagnosis.StragglerNode)
	}
	if parsed.Diagnosis.BoundPhase != "allgather" {
		t.Errorf("JSON bound_phase = %q, want allgather", parsed.Diagnosis.BoundPhase)
	}
	if parsed.Diagnosis.Ranks != 4 {
		t.Errorf("JSON ranks = %d, want 4", parsed.Diagnosis.Ranks)
	}
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFilesMetrics(t *testing.T) {
	old := writeFile(t, "old.json", `{"counters":{"a":1},"gauges":{},"histograms":{}}`)
	new := writeFile(t, "new.json", `{"counters":{"a":5},"gauges":{},"histograms":{}}`)
	cmp, err := compareFiles(old, new, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Kind != "metrics" || len(cmp.Rows) != 1 {
		t.Errorf("kind=%s rows=%d, want metrics/1", cmp.Kind, len(cmp.Rows))
	}
}

// TestCompareFilesKindMismatch: -compare reads metrics snapshots only; a
// bench report in the old cuccbench -json format, or garbage, on either
// side is refused.
func TestCompareFilesKindMismatch(t *testing.T) {
	bench := writeFile(t, "bench.json",
		`{"schema_version":4,"results":[{"program":"X","engine":"vm-lanes","ns_per_op":100}]}`)
	metricsFile := writeFile(t, "metrics.json", `{"counters":{"a":1},"gauges":{},"histograms":{}}`)
	garbage := writeFile(t, "garbage.json", `hello`)
	for _, pair := range [][2]string{
		{bench, bench}, {bench, metricsFile}, {metricsFile, bench},
		{garbage, garbage}, {metricsFile, garbage},
	} {
		if _, err := compareFiles(pair[0], pair[1], 0.10); err == nil {
			t.Errorf("compareFiles(%s, %s) accepted a non-snapshot file", filepath.Base(pair[0]), filepath.Base(pair[1]))
		}
	}
}
