// Command bench is this repository's benchmark: four named workloads driven
// through an in-process cuccd over loopback TCP, end-to-end metrics measured
// with tracing off, and — in a separate traced run — a per-layer budget
// measured from outside, by timing calls into the layers' public functions
// and reading the counters the program already exposes.  BENCHMARK.json at
// the repository root names every metric; README.md explains the choices.
//
//	bash bench/run.sh                       all workloads, untraced then traced
//	bash bench/run.sh -workload gather -seed 2 -seconds 20 -trace 0
//	bash bench/run.sh -agree                two untraced sets, compared to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run of one workload.
type result struct {
	workload          string
	attempted, failed int
	// wrong counts output-correctness failures the ops do not cover (the
	// paper-sim bitwise and determinism checks).
	wrong int
	// metrics is the set BENCHMARK.json fixes for the run's trace mode;
	// notes are printed beside them and not part of the contract.
	metrics []metric
	notes   []metric
}

func (r *result) correct() bool { return r.failed == 0 && r.wrong == 0 }

// value returns the named metric's value (0 if the run did not report it;
// spec.check has already refused such a run).
func (r *result) value(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// print writes the human-readable rows and, last, the one-line JSON object
// the driver reads.
func (r *result) print(seed int64, seconds float64, trace int) {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d\n", r.workload, seed, seconds, trace)
	fmt.Printf("  %-44s %14d\n  %-44s %14d\n", "ops_attempted", r.attempted, "ops_failed", r.failed)
	for _, m := range r.metrics {
		fmt.Printf("  %-44s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.notes {
		fmt.Printf("  %-44s %14.6g %s  (note)\n", m.name, m.value, m.unit)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jm{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	line, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	fmt.Println(string(line))
}

// run executes one workload once.
func run(sp *spec, w *workload, seed int64, seconds float64, trace int) (*result, error) {
	switch {
	case w.name == "paper-sim":
		return runPaperSim(sp, seed, seconds, trace)
	case trace != 0:
		return runServingTraced(sp, w, seed, seconds)
	default:
		return runServing(w, seed, seconds)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "seed for the arrival schedule, tenant/class picks and fresh-source variants")
	seconds := flag.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run (default: both, in turn)")
	agree := flag.Bool("agree", false, "run the untraced benchmark twice and compare the two sets against the bounds in BENCHMARK.json")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []*workload{w}
	}

	if *agree {
		os.Exit(runAgree(spec, selected, *seed, *seconds))
	}
	modes := []int{0, 1}
	if *trace >= 0 {
		modes = []int{*trace}
	}
	ok := true
	for _, mode := range modes {
		for _, w := range selected {
			res, err := run(spec, w, *seed, *seconds, mode)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			if err := spec.check(res, mode); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			res.print(*seed, *seconds, mode)
			ok = ok && res.correct()
		}
	}
	if !ok {
		os.Exit(1)
	}
}
