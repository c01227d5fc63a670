package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/csched"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/prof"
	"cucc/internal/serve"
	"cucc/internal/simnet"
	"cucc/internal/suites"
)

// engineBenchResult is one (program, engine) timing row of the -json report.
type engineBenchResult struct {
	Program      string  `json:"program"`
	Kernel       string  `json:"kernel"`
	Engine       string  `json:"engine"`
	Workers      int     `json:"workers"`
	Blocks       int     `json:"blocks"`
	Iters        int     `json:"iters"`
	NsPerOp      int64   `json:"ns_per_op"`
	BlocksPerSec float64 `json:"blocks_per_sec"`
}

type engineBenchSpeedup struct {
	Program      string  `json:"program"`
	VMOverInterp float64 `json:"vm_over_interp"`
}

type engineBenchReport struct {
	// SchemaVersion and Config let cuccprof -compare refuse diffs between
	// reports produced under different run configurations (see
	// prof.CompareBench); bump the version when the row format changes.
	SchemaVersion int                  `json:"schema_version"`
	Date          string               `json:"date"`
	Workers       int                  `json:"workers"`
	Config        prof.BenchConfig     `json:"config"`
	Results       []engineBenchResult  `json:"results"`
	Speedups      []engineBenchSpeedup `json:"speedups"`
	// Collectives compares the auto-selected phase-2 schedules against the
	// default ring at paper scale (simulated time, so deterministic and
	// ignored by cuccprof -compare, which diffs wall-clock rows only).
	Collectives []collectiveBenchResult `json:"collectives,omitempty"`
	// Service is the schema-v3 cuccd saturation sweep (open-loop load
	// against a loopback server; see serve.ServiceBench).  cuccprof
	// -compare diffs its qps and p99 per (scenario, rate).
	Service []prof.ServiceResult `json:"service,omitempty"`
}

// collectiveBenchResult is one (program, nodes, -collective choice) row of
// the simulated-time schedule comparison.  ZeroCommTotalSec is the WhatIf
// "free Allgather" floor of the default row: overlap rows must land between
// it and the default total.
type collectiveBenchResult struct {
	Program          string  `json:"program"`
	Nodes            int     `json:"nodes"`
	Choice           string  `json:"choice"`
	Algo             string  `json:"algo,omitempty"`
	TotalSec         float64 `json:"total_sec"`
	CommSec          float64 `json:"comm_sec"`
	OverlapSec       float64 `json:"overlap_sec,omitempty"`
	ZeroCommTotalSec float64 `json:"zero_comm_total_sec,omitempty"`
}

// writeEngineBench times every evaluation-suite program at Small scale on a
// 1-node cluster under both IR engines (the lane-batched register machine
// and the reference interpreter) and writes a JSON report.  The IR path is
// forced with UseInterp so the native backends don't mask engine cost.
// Every cluster it builds reports into reg (nil = metrics off), and so do
// the sessions on them.
func writeEngineBench(path string, workers int, reg *metrics.Registry) error {
	if workers <= 0 {
		// Engine cost is a per-worker property; W=1 isolates it from
		// pool scheduling.
		workers = 1
	}
	engines := []cluster.Engine{cluster.EngineVMLanes, cluster.EngineInterp}
	progs := suites.Registry()

	rep := engineBenchReport{
		SchemaVersion: prof.BenchSchemaVersion,
		Date:          time.Now().UTC().Format("2006-01-02"),
		Workers:       workers,
		Config: prof.BenchConfig{
			Engines: []string{cluster.EngineVMLanes.String(), cluster.EngineInterp.String()},
			Workers: workers,
			Nodes:   1, // timeEngine always runs single-node
			// FaultSeed stays 0: the engine bench never injects faults.
		},
	}
	for _, p := range progs {
		perEngine := map[cluster.Engine]float64{}
		for _, eng := range engines {
			res, err := timeEngine(p, eng, workers, reg)
			if err != nil {
				return fmt.Errorf("engine bench %s/%s: %w", p.Name, eng, err)
			}
			rep.Results = append(rep.Results, res)
			perEngine[eng] = float64(res.NsPerOp)
			fmt.Printf("  %-16s %-7s %12d ns/op  %12.0f blocks/s\n",
				p.Name, eng, res.NsPerOp, res.BlocksPerSec)
		}
		rep.Speedups = append(rep.Speedups, engineBenchSpeedup{
			Program:      p.Name,
			VMOverInterp: perEngine[cluster.EngineInterp] / perEngine[cluster.EngineVMLanes],
		})
	}
	coll, err := collectiveBench(progs, reg)
	if err != nil {
		return err
	}
	rep.Collectives = coll

	fmt.Println("service bench (cuccd over loopback):")
	svc, err := serve.ServiceBench(serve.ServiceBenchConfig{})
	if err != nil {
		return fmt.Errorf("service bench: %w", err)
	}
	rep.Service = svc

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote engine benchmark to %s\n", path)
	return nil
}

// collectiveBench estimates every program at paper scale under the default
// ring schedule, the auto-selected schedule, and auto with phase-3 overlap, per
// node count.  Pure cost model (core.Estimate), so the rows are exact and
// deterministic; non-distributed programs (no phase 2) are skipped.
func collectiveBench(progs []*suites.Program, reg *metrics.Registry) ([]collectiveBenchResult, error) {
	choices := []string{"", "auto", "auto+overlap"}
	var out []collectiveBenchResult
	for _, p := range progs {
		for _, nodes := range []int{8, 32} {
			var base *core.Stats
			for _, cs := range choices {
				choice, err := csched.ParseChoice(cs)
				if err != nil {
					return nil, err
				}
				c, err := cluster.New(cluster.Config{Nodes: nodes, Machine: machine.Intel6226(), Net: simnet.IB100(), Metrics: reg})
				if err != nil {
					return nil, err
				}
				sess := core.NewSession(c, p.Compiled)
				sess.Collective = choice
				st, err := sess.Estimate(p.Spec(p.Default))
				c.Close()
				if err != nil {
					return nil, fmt.Errorf("collective bench %s @%d nodes: %w", p.Name, nodes, err)
				}
				if !st.Distributed || st.CommSec == 0 {
					break // no phase 2, nothing to compare
				}
				row := collectiveBenchResult{
					Program: p.Name, Nodes: nodes, Choice: cs,
					Algo: st.CollectiveAlgo, TotalSec: st.TotalSec,
					CommSec: st.CommSec, OverlapSec: st.OverlapSec,
				}
				if cs == "" {
					row.Choice = "default"
					row.ZeroCommTotalSec = st.TotalSec - st.CommSec
					base = st
				}
				out = append(out, row)
				fmt.Printf("  %-16s %2d nodes  %-12s %-12s total %.3fs  comm %.3fs  overlap %.3fs\n",
					p.Name, nodes, row.Choice, row.Algo, row.TotalSec, row.CommSec, row.OverlapSec)
				if base != nil && st.TotalSec > base.TotalSec*(1+1e-9) {
					return nil, fmt.Errorf("collective bench %s @%d nodes: %s total %.6fs worse than the default ring's %.6fs",
						p.Name, nodes, cs, st.TotalSec, base.TotalSec)
				}
			}
		}
	}
	return out, nil
}

// timeEngine runs one program repeatedly under one engine until the sample
// is long enough to trust (>=3 iterations and >=200ms of kernel time).
func timeEngine(p *suites.Program, eng cluster.Engine, workers int, reg *metrics.Registry) (engineBenchResult, error) {
	c, err := cluster.New(cluster.Config{Nodes: 1, Machine: machine.Intel6226(), Net: simnet.IB100(), Metrics: reg})
	if err != nil {
		return engineBenchResult{}, err
	}
	defer c.Close()
	inst, err := p.Build(c, p.Small)
	if err != nil {
		return engineBenchResult{}, err
	}
	inst.Spec.UseInterp = true
	sess := core.NewSession(c, p.Compiled)
	sess.Host.Workers = workers
	sess.Host.Engine = eng
	blocks := inst.Spec.Grid.Count()

	// Warm up (compiles and caches the vm program, touches all buffers).
	if _, err := sess.Launch(inst.Spec); err != nil {
		return engineBenchResult{}, err
	}
	const minIters = 3
	const minDur = 200 * time.Millisecond
	iters := 0
	start := time.Now()
	var elapsed time.Duration
	for iters < minIters || elapsed < minDur {
		if _, err := sess.Launch(inst.Spec); err != nil {
			return engineBenchResult{}, err
		}
		iters++
		elapsed = time.Since(start)
	}
	ns := elapsed.Nanoseconds() / int64(iters)
	return engineBenchResult{
		Program:      p.Name,
		Kernel:       p.Kernel,
		Engine:       eng.String(),
		Workers:      workers,
		Blocks:       blocks,
		Iters:        iters,
		NsPerOp:      ns,
		BlocksPerSec: float64(blocks) * float64(iters) / elapsed.Seconds(),
	}, nil
}
