package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is BENCHMARK.json: the names, units, directions and regression
// bounds the program's output is held to.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`

	// root is the directory BENCHMARK.json was found in.
	root string
}

// loadSpec finds BENCHMARK.json in the working directory or its parent, so
// the program runs from the repository root (bench/run.sh) and from bench/
// (go run .) alike.
func loadSpec() (*spec, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		s := &spec{root: dir}
		if err := json.Unmarshal(data, s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// check holds a result to the spec: exactly the spec's metrics for the trace
// mode, each with the spec's unit, each a finite number.
func (s *spec) check(r *result, trace int) error {
	want := s.EndToEnd
	if trace != 0 {
		want = s.PerLayer
	}
	got := map[string]metric{}
	for _, m := range r.metrics {
		got[m.name] = m
	}
	if len(got) != len(r.metrics) {
		return fmt.Errorf("%s: a metric is reported twice", r.workload)
	}
	for _, sm := range want {
		m, ok := got[sm.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s: metric %s of BENCHMARK.json is not reported", r.workload, sm.Name)
		case m.unit != sm.Unit:
			return fmt.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", r.workload, sm.Name, m.unit, sm.Unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			return fmt.Errorf("%s: metric %s is %v", r.workload, sm.Name, m.value)
		}
		delete(got, sm.Name)
	}
	for name := range got {
		return fmt.Errorf("%s: metric %s is not in BENCHMARK.json", r.workload, name)
	}
	return nil
}

// worseBy is how much worse b is than a as a share of a, given the metric's
// direction; negative when b is better.
func (sm specMetric) worseBy(a, b float64) float64 {
	if sm.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAgree runs the untraced benchmark twice and prints, per workload and
// end-to-end metric, both values and their relative difference.  It returns
// the exit code: non-zero if any pair differs by more than the metric's
// bound, in either direction, or any run was incorrect.
func runAgree(s *spec, selected []*workload, seed int64, seconds float64) int {
	code := 0
	for _, w := range selected {
		var runs [2]*result
		for i := range runs {
			res, err := run(s, w, seed, seconds, 0)
			if err == nil {
				err = s.check(res, 0)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.correct() {
				fmt.Printf("%s: run %d incorrect (%d of %d ops failed, %d checks wrong)\n", w.name, i+1, res.failed, res.attempted, res.wrong)
				code = 1
			}
			runs[i] = res
		}
		for _, sm := range s.EndToEnd {
			a, b := runs[0].value(sm.Name), runs[1].value(sm.Name)
			diff := math.Abs(sm.worseBy(a, b))
			verdict := "ok"
			if diff > sm.Bound {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Printf("%-12s %-20s %12.6g %12.6g %-7s diff %6.2f%%  bound %5.1f%%  %s\n",
				w.name, sm.Name, a, b, sm.Unit, diff*100, sm.Bound*100, verdict)
		}
	}
	return code
}
