package prof

import (
	"testing"

	"cucc/internal/metrics"
)

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
