package prof

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"cucc/internal/metrics"
)

// BenchSchemaVersion is the engine-benchmark report schema cuccprof
// understands.  Version 0 is the pre-schema legacy format (no schema_version
// or config block); comparisons involving a legacy report proceed with a
// warning instead of a refusal, since the row format is unchanged.
// Version 2 added the vm-lanes engine rows and the vm_lanes_over_vm speedup
// column; the row format is still compatible, so cross-version comparisons
// warn and match keys instead of refusing.
// Version 3 added the service rows (cuccd load-generator measurements:
// qps, latency quantiles, reject rate per scenario/rate point); engine rows
// are unchanged, so v2-vs-v3 comparisons warn and the service keys appear
// under only-new.
// Version 4 added SLO attainment and error-budget burn to the service rows
// (slo_attainment, slo_burn); the columns are optional (omitempty) and the
// SLO comparison rows are only produced when both sides carry them, so
// v3-vs-v4 comparisons warn and diff the shared figures.
// Reports no longer carry "vm" engine rows or the vm_lanes_over_vm column
// (the register machine has one loop, benchmarked as "vm-lanes"); that
// needed no version bump: against an older baseline the engine-set warning
// fires and its vm rows land under only-old.
const BenchSchemaVersion = 4

// BenchConfig pins the run configuration a benchmark report was produced
// under.  Two reports with differing configs measure different things, so
// CompareBench refuses to diff them.
type BenchConfig struct {
	Engines   []string `json:"engines"`
	Workers   int      `json:"workers"`
	Nodes     int      `json:"nodes"`
	FaultSeed int64    `json:"fault_seed"`
}

// BenchResult mirrors one (program, engine) row of a cuccbench -json report.
type BenchResult struct {
	Program      string  `json:"program"`
	Kernel       string  `json:"kernel"`
	Engine       string  `json:"engine"`
	Workers      int     `json:"workers"`
	Blocks       int     `json:"blocks"`
	Iters        int     `json:"iters"`
	NsPerOp      int64   `json:"ns_per_op"`
	BlocksPerSec float64 `json:"blocks_per_sec"`
}

// ServiceResult is one service-level row of a schema-v3 report: what the
// cuccd daemon sustained under one load-generator scenario at one target
// rate (see serve.ServiceBench).
type ServiceResult struct {
	// Scenario names the load mix (e.g. "2tenant-vecadd-fir").
	Scenario string `json:"scenario"`
	// TargetRate is the offered Poisson rate (jobs/sec).
	TargetRate float64 `json:"target_rate"`
	Offered    int     `json:"offered"`
	Completed  int     `json:"completed"`
	Rejected   int     `json:"rejected"`
	// QPS is the measured completion rate.
	QPS float64 `json:"qps"`
	// Latency quantiles over completed jobs, milliseconds.
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	// RejectRate is rejected / offered (admission backpressure).
	RejectRate float64 `json:"reject_rate"`
	// SLOAttainment is the fraction of requests meeting the scenario's
	// latency objective (schema v4; 0 when the report predates it).
	SLOAttainment float64 `json:"slo_attainment,omitempty"`
	// SLOBurn is the error-budget burn rate over the run:
	// (1-attainment)/(1-target) (schema v4).
	SLOBurn float64 `json:"slo_burn,omitempty"`
}

// BenchReport mirrors the cuccbench -json engine-benchmark report.
type BenchReport struct {
	SchemaVersion int           `json:"schema_version"`
	Date          string        `json:"date"`
	Workers       int           `json:"workers"`
	Config        *BenchConfig  `json:"config,omitempty"`
	Results       []BenchResult `json:"results"`
	// Service holds the schema-v3 service-level rows (absent before v3).
	Service []ServiceResult `json:"service,omitempty"`
}

// ParseBenchReport loads a cuccbench -json report.
func ParseBenchReport(data []byte) (*BenchReport, error) {
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("prof: not a bench report: %w", err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("prof: bench report has no results")
	}
	if rep.SchemaVersion > BenchSchemaVersion {
		return nil, fmt.Errorf("prof: bench report schema v%d is newer than this tool understands (v%d)",
			rep.SchemaVersion, BenchSchemaVersion)
	}
	return &rep, nil
}

// CompareRow is one matched key across two reports.
type CompareRow struct {
	Key string  `json:"key"`
	Old float64 `json:"old"`
	New float64 `json:"new"`
	// DeltaFrac is (new-old)/old; positive means the figure grew.
	DeltaFrac float64 `json:"delta_frac"`
	// Regression marks growth beyond the comparison threshold in a
	// figure where growth is bad (ns/op, simulated seconds).
	Regression bool `json:"regression"`
}

// Comparison is the diff of two reports (bench or metrics).
type Comparison struct {
	Kind      string       `json:"kind"` // "bench" or "metrics"
	Threshold float64      `json:"threshold"`
	Rows      []CompareRow `json:"rows"`
	// OnlyOld / OnlyNew list keys present in one report but not the other.
	OnlyOld []string `json:"only_old,omitempty"`
	OnlyNew []string `json:"only_new,omitempty"`
	// Warnings carries non-fatal caveats (e.g. legacy schema).
	Warnings []string `json:"warnings,omitempty"`
}

// Regressions counts the rows flagged as regressions.
func (c *Comparison) Regressions() int {
	n := 0
	for _, r := range c.Rows {
		if r.Regression {
			n++
		}
	}
	return n
}

// CompareBench diffs two engine-benchmark reports keyed by
// (program, engine).  threshold is the fractional ns/op growth tolerated
// before a row counts as a regression (0.10 = 10%).  Reports produced under
// different workers/nodes/fault-seed configs are refused — the numbers would
// not be comparable.  Schema-version and engine-list differences only warn:
// rows are matched by key, and engines present on one side only land in
// OnlyOld/OnlyNew, so a report that grew a new engine still diffs cleanly
// against its predecessor.
func CompareBench(old, new *BenchReport, threshold float64) (*Comparison, error) {
	if err := configMismatch(old, new); err != nil {
		return nil, err
	}
	cmp := &Comparison{Kind: "bench", Threshold: threshold}
	if old.SchemaVersion == 0 || new.SchemaVersion == 0 {
		cmp.Warnings = append(cmp.Warnings,
			"one report predates schema_version: run config not cross-checked")
	} else if old.SchemaVersion != new.SchemaVersion {
		cmp.Warnings = append(cmp.Warnings, fmt.Sprintf(
			"schema versions differ (old v%d, new v%d): matching rows by key",
			old.SchemaVersion, new.SchemaVersion))
	}
	if w := engineListDiff(old, new); w != "" {
		cmp.Warnings = append(cmp.Warnings, w)
	}
	key := func(r BenchResult) string { return r.Program + "/" + r.Engine }
	oldBy := map[string]BenchResult{}
	for _, r := range old.Results {
		oldBy[key(r)] = r
	}
	seen := map[string]bool{}
	for _, nr := range new.Results {
		k := key(nr)
		seen[k] = true
		or, ok := oldBy[k]
		if !ok {
			cmp.OnlyNew = append(cmp.OnlyNew, k)
			continue
		}
		row := CompareRow{Key: k, Old: float64(or.NsPerOp), New: float64(nr.NsPerOp)}
		if or.NsPerOp > 0 {
			row.DeltaFrac = (row.New - row.Old) / row.Old
		}
		row.Regression = row.DeltaFrac > threshold
		cmp.Rows = append(cmp.Rows, row)
	}
	for k := range oldBy {
		if !seen[k] {
			cmp.OnlyOld = append(cmp.OnlyOld, k)
		}
	}
	compareService(cmp, old, new, threshold)
	cmp.sortRows()
	return cmp, nil
}

// compareService diffs the schema-v3 service rows, keyed by scenario and
// target rate.  Each point contributes two figures with opposite polarity:
// p99 latency (growth beyond the threshold is a regression) and measured
// QPS (shrink beyond the threshold is a regression).  Reject rate is
// reported but never flagged — under an over-saturating sweep point a high
// reject rate is the backpressure design working, not a fault.
func compareService(cmp *Comparison, old, new *BenchReport, threshold float64) {
	key := func(r ServiceResult) string { return fmt.Sprintf("service:%s@%g", r.Scenario, r.TargetRate) }
	oldBy := map[string]ServiceResult{}
	for _, r := range old.Service {
		oldBy[key(r)] = r
	}
	seen := map[string]bool{}
	for _, nr := range new.Service {
		k := key(nr)
		seen[k] = true
		or, ok := oldBy[k]
		if !ok {
			cmp.OnlyNew = append(cmp.OnlyNew, k)
			continue
		}
		p99 := CompareRow{Key: k + "/p99_ms", Old: or.P99Ms, New: nr.P99Ms}
		if or.P99Ms > 0 {
			p99.DeltaFrac = (p99.New - p99.Old) / p99.Old
		}
		p99.Regression = p99.DeltaFrac > threshold
		cmp.Rows = append(cmp.Rows, p99)

		qps := CompareRow{Key: k + "/qps", Old: or.QPS, New: nr.QPS}
		if or.QPS > 0 {
			qps.DeltaFrac = (qps.New - qps.Old) / qps.Old
		}
		qps.Regression = qps.DeltaFrac < -threshold
		cmp.Rows = append(cmp.Rows, qps)

		// SLO figures exist only from schema v4 on; require them on both
		// sides so a v3 baseline (attainment 0) never flags a false
		// regression.  Attainment shrink and burn growth are regressions.
		if or.SLOAttainment > 0 && nr.SLOAttainment > 0 {
			att := CompareRow{Key: k + "/slo_attainment", Old: or.SLOAttainment, New: nr.SLOAttainment}
			att.DeltaFrac = (att.New - att.Old) / att.Old
			att.Regression = att.DeltaFrac < -threshold
			cmp.Rows = append(cmp.Rows, att)

			burn := CompareRow{Key: k + "/slo_burn", Old: or.SLOBurn, New: nr.SLOBurn}
			if or.SLOBurn > 0 {
				burn.DeltaFrac = (burn.New - burn.Old) / burn.Old
				burn.Regression = burn.DeltaFrac > threshold
			} else if nr.SLOBurn > 0 {
				// A budget that was not burning and now is: always flag.
				burn.DeltaFrac = math.Inf(1)
				burn.Regression = true
			}
			cmp.Rows = append(cmp.Rows, burn)
		}
	}
	for k := range oldBy {
		if !seen[k] {
			cmp.OnlyOld = append(cmp.OnlyOld, k)
		}
	}
}

// engineListDiff reports (as a warning string, "" when equal) an engine-list
// difference between two reports.  Unlike workers/nodes/fault-seed, a
// differing engine set doesn't invalidate the shared rows — each row is a
// (program, engine) measurement on its own — so it warns instead of refusing.
func engineListDiff(old, new *BenchReport) string {
	a, b := old.Config, new.Config
	if a == nil || b == nil {
		return ""
	}
	if strings.Join(a.Engines, ",") != strings.Join(b.Engines, ",") {
		return fmt.Sprintf("engine sets differ (old %v, new %v): unshared engines appear under only-old/only-new",
			a.Engines, b.Engines)
	}
	return ""
}

func configMismatch(old, new *BenchReport) error {
	a, b := old.Config, new.Config
	if a == nil || b == nil {
		return nil // legacy report: nothing to cross-check
	}
	var diffs []string
	if a.Workers != b.Workers {
		diffs = append(diffs, fmt.Sprintf("workers %d vs %d", a.Workers, b.Workers))
	}
	if a.Nodes != b.Nodes {
		diffs = append(diffs, fmt.Sprintf("nodes %d vs %d", a.Nodes, b.Nodes))
	}
	if a.FaultSeed != b.FaultSeed {
		diffs = append(diffs, fmt.Sprintf("fault seed %d vs %d", a.FaultSeed, b.FaultSeed))
	}
	if len(diffs) > 0 {
		return fmt.Errorf("prof: run configs differ (%s): refusing to compare", strings.Join(diffs, "; "))
	}
	return nil
}

// CompareMetrics diffs two metrics snapshots (counters and gauges by name;
// histograms by count and sum).  Rows whose value moved by more than
// threshold in either direction are included; growth in time-like figures
// (names containing "seconds" or "nanos") beyond the threshold counts as a
// regression.
func CompareMetrics(old, new metrics.Snapshot, threshold float64) *Comparison {
	cmp := &Comparison{Kind: "metrics", Threshold: threshold}
	oldVals, newVals := flattenSnapshot(old), flattenSnapshot(new)
	seen := map[string]bool{}
	for k, nv := range newVals {
		seen[k] = true
		ov, ok := oldVals[k]
		if !ok {
			cmp.OnlyNew = append(cmp.OnlyNew, k)
			continue
		}
		row := CompareRow{Key: k, Old: ov, New: nv}
		switch {
		case ov != 0:
			row.DeltaFrac = (nv - ov) / math.Abs(ov)
		case nv != 0:
			row.DeltaFrac = math.Inf(1)
		}
		if math.Abs(row.DeltaFrac) <= threshold {
			continue
		}
		row.Regression = row.DeltaFrac > threshold && timeLike(k)
		cmp.Rows = append(cmp.Rows, row)
	}
	for k := range oldVals {
		if !seen[k] {
			cmp.OnlyOld = append(cmp.OnlyOld, k)
		}
	}
	cmp.sortRows()
	return cmp
}

func timeLike(name string) bool {
	return strings.Contains(name, "seconds") || strings.Contains(name, "nanos")
}

// flattenSnapshot reduces a snapshot to comparable scalars: counters and
// gauges as-is; each histogram contributes its count and sum.
func flattenSnapshot(s metrics.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for k, v := range s.Counters {
		out[k] = float64(v)
	}
	for k, v := range s.Gauges {
		out[k] = v
	}
	for k, h := range s.Histograms {
		out[k+".count"] = float64(h.Count)
		out[k+".sum"] = h.Sum
	}
	return out
}

func (c *Comparison) sortRows() {
	// Worst regressions first, then by key for determinism.
	sort.SliceStable(c.Rows, func(i, j int) bool {
		a, b := c.Rows[i], c.Rows[j]
		if a.Regression != b.Regression {
			return a.Regression
		}
		if a.DeltaFrac != b.DeltaFrac {
			return a.DeltaFrac > b.DeltaFrac
		}
		return a.Key < b.Key
	})
	sort.Strings(c.OnlyOld)
	sort.Strings(c.OnlyNew)
}

// JSON serializes the comparison.
func (c *Comparison) JSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// Table renders the comparison for terminals.
func (c *Comparison) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s comparison (threshold %.0f%%) ===\n", c.Kind, c.Threshold*100)
	for _, w := range c.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	if len(c.Rows) == 0 {
		b.WriteString("no differences beyond threshold\n")
	} else {
		fmt.Fprintf(&b, "%-40s %15s %15s %9s\n", "key", "old", "new", "delta")
		for _, r := range c.Rows {
			tag := ""
			if r.Regression {
				tag = "  REGRESSION"
			}
			fmt.Fprintf(&b, "%-40s %15.4g %15.4g %+8.1f%%%s\n", r.Key, r.Old, r.New, r.DeltaFrac*100, tag)
		}
	}
	if len(c.OnlyOld) > 0 {
		fmt.Fprintf(&b, "only in old: %s\n", strings.Join(c.OnlyOld, ", "))
	}
	if len(c.OnlyNew) > 0 {
		fmt.Fprintf(&b, "only in new: %s\n", strings.Join(c.OnlyNew, ", "))
	}
	if n := c.Regressions(); n > 0 {
		fmt.Fprintf(&b, "%d regression(s) beyond %.0f%%\n", n, c.Threshold*100)
	}
	return b.String()
}
