package prof

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"cucc/internal/metrics"
)

// CompareRow is one matched key across two reports.
type CompareRow struct {
	Key string  `json:"key"`
	Old float64 `json:"old"`
	New float64 `json:"new"`
	// DeltaFrac is (new-old)/old; positive means the figure grew.
	DeltaFrac float64 `json:"delta_frac"`
	// Regression marks growth beyond the comparison threshold in a
	// time-like figure, where growth is bad.
	Regression bool `json:"regression"`
}

// Comparison is the diff of two metrics snapshots.
type Comparison struct {
	Kind      string       `json:"kind"` // "metrics"
	Threshold float64      `json:"threshold"`
	Rows      []CompareRow `json:"rows"`
	// OnlyOld / OnlyNew list keys present in one report but not the other.
	OnlyOld []string `json:"only_old,omitempty"`
	OnlyNew []string `json:"only_new,omitempty"`
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
