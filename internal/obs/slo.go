package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cucc/internal/metrics"
)

// Per-tenant metric-name scheme.  The serving layer records one outcome
// counter set and one latency histogram per tenant in its aggregate
// registry under these names; ComputeSLO reads them back out of a
// snapshot.  The scheme is defined here (not in serve) so the SLO math
// stays a pure function over a metrics.Snapshot, testable without a
// server.
const (
	// TenantFieldCompleted counts jobs that finished StatusOK.
	TenantFieldCompleted = "completed"
	// TenantFieldFailed counts jobs that finished in error.
	TenantFieldFailed = "failed"
	// TenantFieldRejected counts admission rejections (backpressure; they
	// are reported but excluded from the SLO denominator, matching the
	// bench comparison's treatment of reject rate).
	TenantFieldRejected = "rejected"
	// TenantFieldLatency is the log2 histogram of completed jobs'
	// queue+run latency in seconds.
	TenantFieldLatency = "run_seconds"
)

// TenantMetric builds the registry name of one tenant field, e.g.
// "tenant.tenant-a.run_seconds".  The "tenant." prefix keeps the names
// disjoint from both server-level ("serve.") and job-produced counters.
func TenantMetric(tenant, field string) string {
	return "tenant." + tenant + "." + field
}

// DefaultSLOTarget is the attainment target used when an objective does
// not set one.
const DefaultSLOTarget = 0.99

// maxSLOTarget caps the target below 1: a target of exactly 1 has a zero
// error budget and an infinite burn rate on the first bad request, which
// is useless as a signal.  Clamping keeps every reported burn finite.
const maxSLOTarget = 0.9999

// Objective is one tenant's service-level objective.
type Objective struct {
	// LatencyMs is the per-request latency objective in milliseconds: a
	// completed request attains the SLO when its latency is at or below
	// it.  <= 0 disables the latency component (any completion attains).
	LatencyMs float64 `json:"latency_ms"`
	// Target is the attainment target in (0, 1), e.g. 0.99 = "99% of
	// requests complete within the objective".  <= 0 selects
	// DefaultSLOTarget; values at or above 1 are clamped to maxSLOTarget.
	Target float64 `json:"target"`
}

// EffectiveTarget resolves the attainment target to a value strictly
// inside (0, 1), keeping the error budget nonzero and the burn rate
// finite.
func (o Objective) EffectiveTarget() float64 {
	t := o.Target
	if t <= 0 {
		t = DefaultSLOTarget
	}
	if t > maxSLOTarget {
		t = maxSLOTarget
	}
	return t
}

// SLOConfig maps tenants to objectives.
type SLOConfig struct {
	// Default applies to tenants without an explicit entry.  The zero
	// Objective still yields a usable SLO (no latency component,
	// DefaultSLOTarget attainment target).
	Default Objective
	// Tenants overrides the default per tenant name.
	Tenants map[string]Objective
}

// For resolves the objective for one tenant.
func (c SLOConfig) For(tenant string) Objective {
	if o, ok := c.Tenants[tenant]; ok {
		return o
	}
	return c.Default
}

// TenantSLO is one tenant's rolling SLO accounting, computed from the
// snapshot's whole window (the server's lifetime, or a sampler delta for a
// shorter window).
type TenantSLO struct {
	Tenant    string    `json:"tenant"`
	Objective Objective `json:"objective"`
	// Requests is the SLO denominator: completed + failed (rejections are
	// excluded — admission backpressure is reported separately).
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Rejected  int64 `json:"rejected"`
	// Attained counts requests that met the objective: completed within
	// the latency objective (by the conservative bucket-upper-bound count;
	// see metrics.HistValue.CountLE).  Failures never attain.
	Attained int64 `json:"attained"`
	// Attainment is Attained / Requests (1 when there were no requests:
	// an idle tenant has burned no budget).
	Attainment float64 `json:"attainment"`
	// P50Ms/P90Ms/P99Ms are the observed latency quantiles in
	// milliseconds, each the upper bound of its log2 bucket.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	// BudgetBurn is the error-budget burn rate over the window:
	// (1 - Attainment) / (1 - target).  1.0 means the tenant is burning
	// exactly its budget; above 1 it will exhaust the budget early.
	// Always finite: the effective target is clamped below 1.
	BudgetBurn float64 `json:"budget_burn"`
}

// ComputeSLO derives every tenant's SLO accounting from a snapshot
// containing the TenantMetric names.  Tenants are discovered from the
// snapshot (any tenant with at least one recorded field appears); rows are
// sorted by tenant name, so equal snapshots yield identical reports.
func ComputeSLO(snap metrics.Snapshot, cfg SLOConfig) []TenantSLO {
	tenants := map[string]bool{}
	collect := func(name string) {
		rest, ok := strings.CutPrefix(name, "tenant.")
		if !ok {
			return
		}
		if i := strings.LastIndex(rest, "."); i > 0 {
			tenants[rest[:i]] = true
		}
	}
	for name := range snap.Counters {
		collect(name)
	}
	for name := range snap.Histograms {
		collect(name)
	}
	names := make([]string, 0, len(tenants))
	for t := range tenants {
		names = append(names, t)
	}
	sort.Strings(names)

	out := make([]TenantSLO, 0, len(names))
	for _, t := range names {
		o := cfg.For(t)
		row := TenantSLO{
			Tenant:    t,
			Objective: o,
			Completed: snap.Counters[TenantMetric(t, TenantFieldCompleted)],
			Failed:    snap.Counters[TenantMetric(t, TenantFieldFailed)],
			Rejected:  snap.Counters[TenantMetric(t, TenantFieldRejected)],
		}
		row.Requests = row.Completed + row.Failed
		hv := snap.Histograms[TenantMetric(t, TenantFieldLatency)]
		row.P50Ms = hv.P50() * 1e3
		row.P90Ms = hv.P90() * 1e3
		row.P99Ms = hv.P99() * 1e3
		if o.LatencyMs > 0 {
			row.Attained = hv.CountLE(o.LatencyMs / 1e3)
			if row.Attained > row.Completed {
				row.Attained = row.Completed
			}
		} else {
			row.Attained = row.Completed
		}
		row.Attainment = 1
		if row.Requests > 0 {
			row.Attainment = float64(row.Attained) / float64(row.Requests)
		}
		row.BudgetBurn = (1 - row.Attainment) / (1 - o.EffectiveTarget())
		out = append(out, row)
	}
	return out
}

// ExportSLOJSON serializes the SLO rows deterministically (row order is
// already sorted by tenant; struct field order is fixed).
func ExportSLOJSON(rows []TenantSLO) ([]byte, error) {
	if rows == nil {
		rows = []TenantSLO{}
	}
	return json.MarshalIndent(rows, "", "  ")
}

// ParseSLO loads rows serialized by ExportSLOJSON (the /slo?format=json
// payload).
func ParseSLO(data []byte) ([]TenantSLO, error) {
	var rows []TenantSLO
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("obs: not an SLO report: %w", err)
	}
	return rows, nil
}

// SLOTable renders the report as a deterministic text table.
func SLOTable(rows []TenantSLO) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %8s %8s %8s %10s %9s %9s %9s %8s\n",
		"tenant", "objective", "requests", "failed", "rejected",
		"attainment", "p50 ms", "p90 ms", "p99 ms", "burn")
	for _, r := range rows {
		obj := "-"
		if r.Objective.LatencyMs > 0 {
			obj = fmt.Sprintf("%gms", r.Objective.LatencyMs)
		}
		fmt.Fprintf(&b, "%-12s %10s %8d %8d %8d %9.2f%% %9.2f %9.2f %9.2f %8.2f\n",
			r.Tenant, obj, r.Requests, r.Failed, r.Rejected,
			r.Attainment*100, r.P50Ms, r.P90Ms, r.P99Ms, r.BudgetBurn)
	}
	if len(rows) == 0 {
		b.WriteString("(no tenant traffic recorded yet)\n")
	}
	return b.String()
}
