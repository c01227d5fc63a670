// Command cuccprof diagnoses CuCC runs: it extracts the critical path,
// straggler and load-imbalance reports, and what-if estimates from a
// recorded timeline, and diffs metrics snapshots for regressions.
//
// Usage:
//
//	cuccprof -trace run.trace.json                   # diagnose a recorded Chrome trace
//	cuccprof -trace run.trace.json -metrics m.json   # ... with a metrics snapshot attached
//	cuccprof -prog FIR -nodes 4                      # run the program, then diagnose it
//	cuccprof -suite -nodes 4                         # run and diagnose every evaluation program
//	cuccprof -prog FIR -nodes 4 -vmprofile           # also collect the VM opcode profile
//	cuccprof -compare old.json new.json              # diff two metrics snapshots
//	                                                 # (-metrics-out); exit 1 on regressions
//	cuccprof -postmortem postmortem-job7.json        # render a cuccd flight-recorder
//	                                                 # dump as a failure timeline
//
// Exit codes: 0 clean, 1 regressions or failed runs, 2 usage / input errors.
// A -postmortem dump that parses exits 0: the dump records an already-handled
// failure or recovery, so rendering it is not itself a failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/obs"
	"cucc/internal/prof"
	"cucc/internal/simnet"
	"cucc/internal/suites"
	"cucc/internal/trace"
	"cucc/internal/vm"
)

func main() {
	tracePath := flag.String("trace", "", "diagnose a Chrome trace-event JSON file (written by cuccrun -trace or cuccprof -prog)")
	metricsPath := flag.String("metrics", "", "attach a metrics snapshot JSON (written by cuccrun -metrics-out)")
	progName := flag.String("prog", "", "run this evaluation program on a simulated cluster, then diagnose it")
	suite := flag.Bool("suite", false, "run and diagnose every evaluation program")
	nodes := flag.Int("nodes", 4, "cluster node count for -prog/-suite")
	workers := flag.Int("workers", 0, "intra-node worker-pool width (0 = all CPUs)")
	engine := flag.String("engine", "vm-lanes", "IR engine for -prog/-suite: vm-lanes (vm is accepted as another name for it) or interp")
	vmProfile := flag.Bool("vmprofile", false, "collect the VM opcode profile during -prog/-suite (forces the IR path)")
	jsonOut := flag.Bool("json", false, "emit JSON instead of the human table")
	compare := flag.Bool("compare", false, "compare two metrics snapshots (written by -metrics-out): cuccprof -compare old.json new.json")
	postmortem := flag.String("postmortem", "", "render a cuccd flight-recorder dump (postmortem-job<id>.json) as a failure timeline")
	threshold := flag.Float64("threshold", 0.10, "fractional regression threshold for -compare (0.10 = 10%)")
	traceOut := flag.String("trace-out", "", "with -prog/-suite: also write the recorded Chrome trace here")
	allowTruncated := flag.Bool("allow-truncated", false, "analyze a -trace file even if its capped recorder dropped events (figures then cover only the retained window)")
	flag.Parse()

	switch {
	case *compare:
		args := flag.Args()
		if len(args) != 2 {
			fatalf(2, "-compare needs exactly two files: cuccprof -compare old.json new.json")
		}
		os.Exit(runCompare(args[0], args[1], *threshold, *jsonOut))
	case *postmortem != "":
		os.Exit(runPostmortem(*postmortem, *jsonOut))
	case *tracePath != "":
		os.Exit(runTraceDiagnosis(*tracePath, *metricsPath, *jsonOut, *allowTruncated))
	case *progName != "" || *suite:
		os.Exit(runProgDiagnosis(progConfig{
			prog: *progName, suite: *suite, nodes: *nodes, workers: *workers,
			engine: *engine, vmProfile: *vmProfile, jsonOut: *jsonOut,
			traceOut: *traceOut,
		}))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// --- trace-file mode ---

// runTraceDiagnosis analyzes a serialized trace (plus an optional metrics
// snapshot) and prints the diagnosis.  Returns the process exit code.
func runTraceDiagnosis(tracePath, metricsPath string, jsonOut, allowTruncated bool) int {
	rep, snap, err := diagnoseTraceFile(tracePath, metricsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if rep.DroppedEvents > 0 && !allowTruncated {
		fmt.Fprintf(os.Stderr, "cuccprof: %s is truncated: the capped recorder dropped %d events, so the critical path and straggler figures would describe only the retained window; pass -allow-truncated to analyze it anyway\n",
			tracePath, rep.DroppedEvents)
		return 2
	}
	if jsonOut {
		raw, err := json.MarshalIndent(diagnosisOutput{Diagnosis: rep, Metrics: snap}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Println(string(raw))
	} else {
		fmt.Print(rep.Table())
		if snap != nil {
			fmt.Printf("\nmetrics snapshot (%s):\n%s", metricsPath, snap.Table())
		}
	}
	if len(rep.Failures) > 0 {
		return 1
	}
	return 0
}

// diagnosisOutput is the -json envelope of the diagnosis modes.
type diagnosisOutput struct {
	Diagnosis  *prof.Report       `json:"diagnosis"`
	Metrics    *metrics.Snapshot  `json:"metrics,omitempty"`
	VMProfiles []vm.KernelProfile `json:"vm_profiles,omitempty"`
}

func diagnoseTraceFile(tracePath, metricsPath string) (*prof.Report, *metrics.Snapshot, error) {
	data, err := os.ReadFile(tracePath)
	if err != nil {
		return nil, nil, err
	}
	events, dropped, err := trace.ParseChromeDropped(data)
	if err != nil {
		return nil, nil, err
	}
	var snap *metrics.Snapshot
	if metricsPath != "" {
		mdata, err := os.ReadFile(metricsPath)
		if err != nil {
			return nil, nil, err
		}
		s, err := metrics.ParseSnapshot(mdata)
		if err != nil {
			return nil, nil, err
		}
		snap = &s
	}
	rep := prof.Analyze(events, nil)
	rep.DroppedEvents = dropped
	return rep, snap, nil
}

// --- run-and-diagnose mode ---

type progConfig struct {
	prog      string
	suite     bool
	nodes     int
	workers   int
	engine    string
	vmProfile bool
	jsonOut   bool
	traceOut  string
}

func runProgDiagnosis(cfg progConfig) int {
	eng, err := cluster.ParseEngine(cfg.engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	all := append([]*suites.Program{suites.VecAdd()}, suites.All()...)
	var progs []*suites.Program
	if cfg.suite {
		progs = all
	} else {
		for _, p := range all {
			if strings.EqualFold(p.Name, cfg.prog) {
				progs = append(progs, p)
			}
		}
		if len(progs) == 0 {
			fatalf(2, "unknown program %q", cfg.prog)
		}
	}

	if cfg.vmProfile {
		vm.SetProfiling(true)
		vm.ResetProfiles()
		defer vm.SetProfiling(false)
	}

	rec := trace.New()
	var lastStats *core.Stats
	for _, p := range progs {
		c, err := cluster.New(cluster.Config{Nodes: cfg.nodes, Machine: machine.Intel6226(), Net: simnet.IB100()})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		inst, err := p.Build(c, p.Small)
		if err != nil {
			c.Close()
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if cfg.vmProfile {
			// The opcode profiler lives in the IR engines; keep the native
			// fast path from short-circuiting them.
			inst.Spec.UseInterp = true
		}
		sess := core.NewSession(c, p.Compiled)
		sess.Host.Workers = cfg.workers
		sess.Host.Engine = eng
		sess.Trace = rec
		stats, err := sess.Launch(inst.Spec)
		c.Close()
		if err != nil {
			// The abort/timeout event is in the trace; diagnose what ran.
			fmt.Fprintf(os.Stderr, "%s: launch failed: %v\n", p.Name, err)
			continue
		}
		lastStats = stats
	}

	events := rec.Events()
	rep := prof.Analyze(events, statsIfSingle(progs, lastStats))
	rep.DroppedEvents = rec.Dropped()
	if lastStats != nil && len(progs) == 1 {
		// Model-based what-if from the launch statistics (the same
		// decomposition core.Estimate uses) beats the event-derived one
		// when we ran the program ourselves: it knows the block counts.
		rep.WhatIf = prof.WhatIfFromStats(lastStats)
	}

	var profiles []vm.KernelProfile
	if cfg.vmProfile {
		profiles = vm.Profiles()
	}

	if cfg.traceOut != "" {
		raw, err := rec.ChromeTrace()
		if err == nil {
			err = os.WriteFile(cfg.traceOut, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	if cfg.jsonOut {
		raw, err := json.MarshalIndent(diagnosisOutput{Diagnosis: rep, VMProfiles: profiles}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Println(string(raw))
	} else {
		fmt.Print(rep.Table())
		if len(profiles) > 0 {
			fmt.Print(vmProfileTable(profiles))
		}
	}
	if len(rep.Failures) > 0 {
		return 1
	}
	return 0
}

// statsIfSingle attaches launch statistics only when they describe the whole
// timeline (a single program); a suite's trace mixes launches with different
// block partitions.
func statsIfSingle(progs []*suites.Program, stats *core.Stats) *core.Stats {
	if len(progs) == 1 {
		return stats
	}
	return nil
}

// vmProfileTable renders the opcode profiler's findings per kernel: dynamic
// instruction mix, the share that ran once per lane batch, the hottest back
// edges (loops), and the opcodes whose batch-scalar operands still had to be
// broadcast into rows.
func vmProfileTable(profiles []vm.KernelProfile) string {
	var b strings.Builder
	b.WriteString("\nvm opcode profile:\n")
	for _, kp := range profiles {
		fmt.Fprintf(&b, "  kernel %s: %d instructions over %d basic blocks, %.1f%% scalar-executed\n",
			kp.Kernel, kp.Instructions, kp.Blocks, 100*float64(kp.ScalarInstructions)/float64(kp.Instructions))
		top := kp.Opcodes
		if len(top) > 8 {
			top = top[:8]
		}
		for _, oc := range top {
			share := 100 * float64(oc.Count) / float64(kp.Instructions)
			fmt.Fprintf(&b, "    %-10s %12d  %5.1f%%\n", oc.Op, oc.Count, share)
		}
		for i, be := range kp.BackEdges {
			if i >= 3 {
				break
			}
			fmt.Fprintf(&b, "    back edge pc %d -> %d: %d iterations\n", be.PC, be.Target, be.Count)
		}
		if kp.Broadcasts > 0 {
			fmt.Fprintf(&b, "    broadcasts %d (%.1f%%) for:", kp.Broadcasts, 100*float64(kp.Broadcasts)/float64(kp.Instructions))
			for _, oc := range kp.BroadcastFor {
				fmt.Fprintf(&b, " %s %d", oc.Op, oc.Count)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// --- post-mortem mode ---

// runPostmortem renders a flight-recorder dump written by cuccd: the job's
// journal window as a failure timeline, the recovery/launch counters, and
// the trace diagnosis over the retained trace window.  A dump that parses
// exits 0 — it documents a failure the server already handled.
func runPostmortem(path string, jsonOut bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	dump, err := obs.ParseDump(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cuccprof: %s: %v\n", path, err)
		return 2
	}
	rep := prof.AnalyzePostmortem(dump)
	if jsonOut {
		raw, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Println(string(raw))
	} else {
		fmt.Print(rep.Table())
	}
	return 0
}

// --- compare mode ---

// runCompare diffs two metrics snapshots; a file that is not one is refused.
func runCompare(oldPath, newPath string, threshold float64, jsonOut bool) int {
	cmp, err := compareFiles(oldPath, newPath, threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if jsonOut {
		raw, err := cmp.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Println(string(raw))
	} else {
		fmt.Print(cmp.Table())
	}
	if cmp.Regressions() > 0 {
		return 1
	}
	return 0
}

func compareFiles(oldPath, newPath string, threshold float64) (*prof.Comparison, error) {
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		return nil, err
	}
	newData, err := os.ReadFile(newPath)
	if err != nil {
		return nil, err
	}
	oldSnap, err := metrics.ParseSnapshot(oldData)
	if err != nil {
		return nil, fmt.Errorf("cuccprof: %s: %v", oldPath, err)
	}
	newSnap, err := metrics.ParseSnapshot(newData)
	if err != nil {
		return nil, fmt.Errorf("cuccprof: %s: %v", newPath, err)
	}
	return prof.CompareMetrics(oldSnap, newSnap, threshold), nil
}
