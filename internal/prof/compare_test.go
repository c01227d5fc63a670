package prof

import (
	"os"
	"strings"
	"testing"

	"cucc/internal/metrics"
)

func benchReport(ns map[string]int64, cfg *BenchConfig, schema int) *BenchReport {
	rep := &BenchReport{SchemaVersion: schema, Date: "2026-08-05", Workers: 1, Config: cfg}
	for k, v := range ns {
		parts := strings.SplitN(k, "/", 2)
		rep.Results = append(rep.Results, BenchResult{
			Program: parts[0], Engine: parts[1], NsPerOp: v,
		})
	}
	return rep
}

func TestCompareBenchFlagsRegression(t *testing.T) {
	cfg := &BenchConfig{Engines: []string{"vm", "interp"}, Workers: 1, Nodes: 1}
	old := benchReport(map[string]int64{"VecAdd/vm": 1000, "VecAdd/interp": 4000}, cfg, 1)
	new := benchReport(map[string]int64{"VecAdd/vm": 1200, "VecAdd/interp": 4100}, cfg, 1)
	cmp, err := CompareBench(old, new, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if got := cmp.Regressions(); got != 1 {
		t.Fatalf("regressions = %d, want 1 (rows: %+v)", got, cmp.Rows)
	}
	// Worst first: the +20% vm row leads.
	if cmp.Rows[0].Key != "VecAdd/vm" || !cmp.Rows[0].Regression {
		t.Errorf("rows[0] = %+v, want VecAdd/vm regression", cmp.Rows[0])
	}
	if !strings.Contains(cmp.Table(), "REGRESSION") {
		t.Error("table does not mark the regression")
	}
}

func TestCompareBenchWithinThreshold(t *testing.T) {
	old := benchReport(map[string]int64{"VecAdd/vm": 1000}, nil, 0)
	new := benchReport(map[string]int64{"VecAdd/vm": 1050}, nil, 0)
	cmp, err := CompareBench(old, new, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressions() != 0 {
		t.Errorf("5%% growth flagged at 10%% threshold: %+v", cmp.Rows)
	}
	// A legacy (v0) comparison proceeds but warns.
	if len(cmp.Warnings) == 0 {
		t.Error("no warning for schema-less reports")
	}
}

func TestCompareBenchRefusesConfigMismatch(t *testing.T) {
	a := benchReport(map[string]int64{"VecAdd/vm": 1000},
		&BenchConfig{Engines: []string{"vm"}, Workers: 1, Nodes: 1}, 1)
	b := benchReport(map[string]int64{"VecAdd/vm": 1000},
		&BenchConfig{Engines: []string{"vm"}, Workers: 4, Nodes: 1}, 1)
	if _, err := CompareBench(a, b, 0.10); err == nil {
		t.Error("differing worker counts not refused")
	}
}

// TestCompareBenchCrossSchema: a report that grew an engine (and bumped the
// schema version) still diffs against its predecessor — shared keys match,
// the new engine's rows land in only_new, and warnings note both differences.
func TestCompareBenchCrossSchema(t *testing.T) {
	old := benchReport(map[string]int64{"VecAdd/vm": 1000, "VecAdd/interp": 4000},
		&BenchConfig{Engines: []string{"vm", "interp"}, Workers: 1, Nodes: 1}, 1)
	new := benchReport(map[string]int64{"VecAdd/vm": 1000, "VecAdd/interp": 4000, "VecAdd/vm-lanes": 300},
		&BenchConfig{Engines: []string{"vm", "vm-lanes", "interp"}, Workers: 1, Nodes: 1}, 2)
	cmp, err := CompareBench(old, new, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if got := cmp.Regressions(); got != 0 {
		t.Errorf("regressions = %d, want 0 (rows %+v)", got, cmp.Rows)
	}
	if len(cmp.Rows) != 2 {
		t.Errorf("matched rows = %+v, want the two shared keys", cmp.Rows)
	}
	if len(cmp.OnlyNew) != 1 || cmp.OnlyNew[0] != "VecAdd/vm-lanes" {
		t.Errorf("only_new = %v, want the vm-lanes row", cmp.OnlyNew)
	}
	var schemaWarn, engineWarn bool
	for _, w := range cmp.Warnings {
		if strings.Contains(w, "schema versions differ") {
			schemaWarn = true
		}
		if strings.Contains(w, "engine sets differ") {
			engineWarn = true
		}
	}
	if !schemaWarn || !engineWarn {
		t.Errorf("warnings = %v, want schema-version and engine-set warnings", cmp.Warnings)
	}
}

// TestCompareBenchAgainstCheckedInBaselineWithoutVMRows: a report written
// now has no "vm" engine rows; diffed against the checked-in baseline that
// has them (what make bench-compare does) it must not fail or flag, only
// warn and list the baseline's vm rows as missing.
func TestCompareBenchAgainstCheckedInBaselineWithoutVMRows(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_2026-08-08.json")
	if err != nil {
		t.Fatal(err)
	}
	old, err := ParseBenchReport(data)
	if err != nil {
		t.Fatal(err)
	}
	new := *old
	new.Config = &BenchConfig{Engines: []string{"vm-lanes", "interp"},
		Workers: old.Config.Workers, Nodes: old.Config.Nodes, FaultSeed: old.Config.FaultSeed}
	new.Results = nil
	vmRows := 0
	for _, r := range old.Results {
		if r.Engine == "vm" {
			vmRows++
			continue
		}
		new.Results = append(new.Results, r)
	}
	if vmRows == 0 {
		t.Fatal("baseline has no vm rows; the test no longer covers anything")
	}
	cmp, err := CompareBench(old, &new, 0.10)
	if err != nil {
		t.Fatalf("comparison refused: %v", err)
	}
	if got := cmp.Regressions(); got != 0 {
		t.Errorf("regressions = %d, want 0", got)
	}
	if len(cmp.OnlyOld) != vmRows {
		t.Errorf("only_old = %v, want the baseline's %d vm rows", cmp.OnlyOld, vmRows)
	}
	for _, k := range cmp.OnlyOld {
		if !strings.HasSuffix(k, "/vm") {
			t.Errorf("only_old has %q, want only vm rows", k)
		}
	}
	table := cmp.Table()
	if !strings.Contains(table, "warning: engine sets differ") || !strings.Contains(table, "only in old: ") {
		t.Errorf("table lacks the engine-set warning or the missing rows:\n%s", table)
	}
}

func TestCompareBenchDisjointKeys(t *testing.T) {
	old := benchReport(map[string]int64{"VecAdd/vm": 1000, "Gone/vm": 5}, nil, 0)
	new := benchReport(map[string]int64{"VecAdd/vm": 1000, "Fresh/vm": 7}, nil, 0)
	cmp, err := CompareBench(old, new, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.OnlyOld) != 1 || cmp.OnlyOld[0] != "Gone/vm" {
		t.Errorf("only_old = %v", cmp.OnlyOld)
	}
	if len(cmp.OnlyNew) != 1 || cmp.OnlyNew[0] != "Fresh/vm" {
		t.Errorf("only_new = %v", cmp.OnlyNew)
	}
}

func TestParseBenchReport(t *testing.T) {
	if _, err := ParseBenchReport([]byte(`{"results":[]}`)); err == nil {
		t.Error("empty results accepted")
	}
	if _, err := ParseBenchReport([]byte(`garbage`)); err == nil {
		t.Error("garbage accepted")
	}
	rep, err := ParseBenchReport([]byte(`{"schema_version":1,"results":[{"program":"X","engine":"vm","ns_per_op":10}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].NsPerOp != 10 {
		t.Errorf("parsed %+v", rep.Results[0])
	}
	if _, err := ParseBenchReport([]byte(`{"schema_version":99,"results":[{"program":"X"}]}`)); err == nil {
		t.Error("future schema accepted")
	}
}

func snap(counters map[string]int64, gauges map[string]float64) metrics.Snapshot {
	return metrics.Snapshot{Counters: counters, Gauges: gauges,
		Histograms: map[string]metrics.HistValue{}}
}

func TestCompareMetrics(t *testing.T) {
	old := snap(map[string]int64{"core.launch.total": 10},
		map[string]float64{"vm.compile.seconds": 1.0, "steady.gauge": 5})
	new := snap(map[string]int64{"core.launch.total": 10},
		map[string]float64{"vm.compile.seconds": 1.5, "steady.gauge": 5})
	cmp := CompareMetrics(old, new, 0.10)
	if got := cmp.Regressions(); got != 1 {
		t.Fatalf("regressions = %d (rows %+v)", got, cmp.Rows)
	}
	if cmp.Rows[0].Key != "vm.compile.seconds" {
		t.Errorf("rows[0] = %+v", cmp.Rows[0])
	}
	// Unchanged keys stay out of the diff.
	for _, r := range cmp.Rows {
		if r.Key == "steady.gauge" || r.Key == "core.launch.total" {
			t.Errorf("unchanged key %s in diff", r.Key)
		}
	}
}

func TestCompareMetricsNonTimeGrowthNotRegression(t *testing.T) {
	old := snap(map[string]int64{"core.launch.total": 10}, nil)
	new := snap(map[string]int64{"core.launch.total": 20}, nil)
	cmp := CompareMetrics(old, new, 0.10)
	if len(cmp.Rows) != 1 {
		t.Fatalf("rows = %+v", cmp.Rows)
	}
	if cmp.Rows[0].Regression {
		t.Error("a count growing is not a time regression")
	}
}

func TestParseSnapshotRoundTrip(t *testing.T) {
	s := snap(map[string]int64{"a": 1}, map[string]float64{"b": 2})
	raw, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := metrics.ParseSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["a"] != 1 || got.Gauges["b"] != 2 {
		t.Errorf("round trip lost data: %+v", got)
	}
	if _, err := metrics.ParseSnapshot([]byte(`{"x": 1}`)); err == nil {
		t.Error("non-snapshot JSON accepted")
	}
}

// serviceReport wraps benchReport with schema-v3 service rows.
func serviceReport(rows []ServiceResult) *BenchReport {
	rep := benchReport(map[string]int64{"VecAdd/vm": 1000}, nil, BenchSchemaVersion)
	rep.Service = rows
	return rep
}

func TestCompareBenchServiceRows(t *testing.T) {
	old := serviceReport([]ServiceResult{
		{Scenario: "2tenant", TargetRate: 50, QPS: 48, P99Ms: 10, RejectRate: 0},
		{Scenario: "2tenant", TargetRate: 200, QPS: 120, P99Ms: 40, RejectRate: 0.3},
	})
	new := serviceReport([]ServiceResult{
		// p99 +100% at rate 50: regression.  QPS -50% at rate 200: regression.
		// Reject rate doubling is never flagged (backpressure working).
		{Scenario: "2tenant", TargetRate: 50, QPS: 48, P99Ms: 20, RejectRate: 0},
		{Scenario: "2tenant", TargetRate: 200, QPS: 60, P99Ms: 40, RejectRate: 0.6},
		{Scenario: "2tenant", TargetRate: 400, QPS: 90, P99Ms: 80, RejectRate: 0.8},
	})
	cmp, err := CompareBench(old, new, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, r := range cmp.Rows {
		if r.Regression {
			flagged[r.Key] = true
		}
	}
	if !flagged["service:2tenant@50/p99_ms"] {
		t.Errorf("p99 doubling not flagged; rows %+v", cmp.Rows)
	}
	if !flagged["service:2tenant@200/qps"] {
		t.Errorf("qps halving not flagged; rows %+v", cmp.Rows)
	}
	if len(flagged) != 2 {
		t.Errorf("flagged = %v, want exactly the p99@50 and qps@200 rows", flagged)
	}
	wantNew := "service:2tenant@400"
	found := false
	for _, k := range cmp.OnlyNew {
		if k == wantNew {
			found = true
		}
	}
	if !found {
		t.Errorf("only_new = %v, want %s (fresh sweep point)", cmp.OnlyNew, wantNew)
	}
}

func TestCompareBenchServiceImprovementNotFlagged(t *testing.T) {
	old := serviceReport([]ServiceResult{{Scenario: "s", TargetRate: 50, QPS: 40, P99Ms: 20}})
	new := serviceReport([]ServiceResult{{Scenario: "s", TargetRate: 50, QPS: 80, P99Ms: 5}})
	cmp, err := CompareBench(old, new, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if got := cmp.Regressions(); got != 0 {
		t.Errorf("improvement flagged as regression: %+v", cmp.Rows)
	}
}
