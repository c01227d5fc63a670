package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cucc/internal/metrics"
)

// TestSamplerDeltas: SampleNow windows carry per-window counter deltas and
// instantaneous gauge values, not cumulative totals.
func TestSamplerDeltas(t *testing.T) {
	reg := metrics.New()
	s := NewSampler(reg, time.Second, 8)

	reg.Counter("jobs").Add(10)
	reg.Gauge("queue").Set(3)
	s.SampleNow()
	reg.Counter("jobs").Add(5)
	reg.Gauge("queue").Set(1)
	s.SampleNow()

	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if got := pts[0].Delta.Counters["jobs"]; got != 10 {
		t.Errorf("window 0 delta = %d, want 10", got)
	}
	if got := pts[1].Delta.Counters["jobs"]; got != 5 {
		t.Errorf("window 1 delta = %d, want 5 (cumulative leak)", got)
	}
	if got := pts[1].Delta.Gauges["queue"]; got != 1 {
		t.Errorf("window 1 gauge = %g, want 1", got)
	}
	// The table reads each window's gauge as sampled and its counter delta
	// over the measured window length.
	out := s.Table([]Series{
		{Label: "queue", Metric: "queue", Kind: SeriesGauge},
		{Label: "jobs/s", Metric: "jobs", Kind: SeriesRate},
	})
	rows := strings.Split(strings.TrimSuffix(out, "\n"), "\n")[1:]
	if len(rows) != 2 {
		t.Fatalf("table has %d rows, want 2:\n%s", len(rows), out)
	}
	for i, row := range rows {
		f := strings.Fields(row)
		wantGauge := []string{"3.0", "1.0"}[i]
		wantRate := fmt.Sprintf("%.1f", float64(pts[i].Delta.Counters["jobs"])/pts[i].Interval.Seconds())
		if len(f) != 3 || f[1] != wantGauge || f[2] != wantRate {
			t.Errorf("window %d row %q, want queue %s and jobs/s %s", i, row, wantGauge, wantRate)
		}
	}
}

// TestSamplerRingBound: the point ring drops the oldest windows.
func TestSamplerRingBound(t *testing.T) {
	reg := metrics.New()
	s := NewSampler(reg, time.Second, 2)
	for i := 0; i < 5; i++ {
		reg.Counter("c").Inc()
		s.SampleNow()
	}
	if got := len(s.Points()); got != 2 {
		t.Errorf("retained %d points, want 2", got)
	}
	if got := s.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
}

// TestSamplerNil: every method is safe on a nil sampler.
func TestSamplerNil(t *testing.T) {
	var s *Sampler
	s.Start()
	s.Stop()
	s.SampleNow()
	if s.Points() != nil || s.Dropped() != 0 {
		t.Error("nil sampler retained state")
	}
	if got := s.Table([]Series{{Label: "qps", Metric: "c"}}); got != "" {
		t.Errorf("nil sampler Table = %q, want empty", got)
	}
}

// TestSamplerStartStop: Start and Stop are idempotent and the goroutine
// actually terminates.
func TestSamplerStartStop(t *testing.T) {
	reg := metrics.New()
	s := NewSampler(reg, time.Millisecond, 4)
	s.Start()
	s.Start() // second Start must not spawn a second goroutine
	time.Sleep(10 * time.Millisecond)
	s.Stop()
	s.Stop() // second Stop must not panic or hang
	n := len(s.Points())
	if n == 0 {
		t.Error("started sampler took no samples")
	}
	time.Sleep(10 * time.Millisecond)
	if got := len(s.Points()); got != n {
		t.Errorf("sampler kept sampling after Stop: %d then %d points", n, got)
	}
}

// TestSamplerTable: the table renders one row per window with the series
// columns and reports drops.
func TestSamplerTable(t *testing.T) {
	reg := metrics.New()
	s := NewSampler(reg, time.Second, 2)
	for i := 0; i < 3; i++ {
		reg.Counter("done").Add(int64(i + 1))
		reg.Gauge("depth").Set(float64(i))
		s.SampleNow()
	}
	out := s.Table([]Series{
		{Label: "qps", Metric: "done", Kind: SeriesRate},
		{Label: "queue", Metric: "depth", Kind: SeriesGauge},
	})
	if !strings.Contains(out, "qps") || !strings.Contains(out, "queue") {
		t.Errorf("table missing series headers:\n%s", out)
	}
	if !strings.Contains(out, "1 older windows dropped") {
		t.Errorf("table does not report the dropped window:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 4 { // header + 2 rows + drop note
		t.Errorf("table has %d lines, want 4:\n%s", got, out)
	}
}
