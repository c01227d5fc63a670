package metrics

import "testing"

// histOf builds a snapshot HistValue from raw observations.
func histOf(t *testing.T, samples ...float64) HistValue {
	t.Helper()
	r := New()
	h := r.Histogram("h")
	for _, v := range samples {
		h.Observe(v)
	}
	return r.Snapshot().Histograms["h"]
}

// TestPercentileHelpers pins the upper-bound-of-bucket semantics: ten
// samples land in the [0.25, 0.5] log2 bucket and one in (2, 4], so p50 and
// p90 report 0.5 (the fast bucket's upper bound) and p99 reports 4.
func TestPercentileHelpers(t *testing.T) {
	samples := make([]float64, 0, 11)
	for i := 0; i < 10; i++ {
		samples = append(samples, 0.4)
	}
	samples = append(samples, 3.0)
	hv := histOf(t, samples...)

	if got := hv.P50(); got != 0.5 {
		t.Errorf("P50 = %g, want 0.5", got)
	}
	if got := hv.P90(); got != 0.5 {
		t.Errorf("P90 = %g, want 0.5", got)
	}
	if got := hv.P99(); got != 4 {
		t.Errorf("P99 = %g, want 4", got)
	}
	var empty HistValue
	if got := empty.P99(); got != 0 {
		t.Errorf("empty P99 = %g, want 0", got)
	}
}

// TestCountLE pins the conservative counting: a bucket straddling the bound
// contributes nothing, so attainment computed from CountLE never overstates
// compliance.
func TestCountLE(t *testing.T) {
	samples := make([]float64, 0, 11)
	for i := 0; i < 10; i++ {
		samples = append(samples, 0.4) // bucket (0.25, 0.5]
	}
	samples = append(samples, 3.0) // bucket (2, 4]
	hv := histOf(t, samples...)

	for _, tc := range []struct {
		bound float64
		want  int64
	}{
		{0.49, 0},  // the fast bucket's upper bound exceeds the bound: not certain
		{0.5, 10},  // inclusive at the bucket bound
		{1, 10},    // the slow sample's bucket straddles 1
		{4, 11},    // everything certainly within 4
		{1000, 11}, // beyond every bucket
		{0, 0},
	} {
		if got := hv.CountLE(tc.bound); got != tc.want {
			t.Errorf("CountLE(%g) = %d, want %d", tc.bound, got, tc.want)
		}
	}
	var empty HistValue
	if got := empty.CountLE(1); got != 0 {
		t.Errorf("empty CountLE = %d, want 0", got)
	}
}

// TestPercentileSorted pins the truncated-index rank the load generator's
// exact quantiles use (the behavior formerly inlined in
// internal/throughput): idx = int(q * (n-1)).
func TestPercentileSorted(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{0.5, 5},   // int(0.5*9) = 4
		{0.99, 9},  // int(0.99*9) = 8
		{0.999, 9}, // int(0.999*9) = 8
		{1, 10},
	} {
		if got := PercentileSorted(sorted, tc.q); got != tc.want {
			t.Errorf("PercentileSorted(q=%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := PercentileSorted(nil, 0.5); got != 0 {
		t.Errorf("empty slice: got %g, want 0", got)
	}
	if got := PercentileSorted([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %g, want 7", got)
	}
}
