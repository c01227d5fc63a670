// Command cuccrun executes one evaluation program on a simulated CPU
// cluster and reports the three-phase execution statistics.
//
// Usage:
//
//	cuccrun -prog FIR -nodes 8                 # paper scale, cost model
//	cuccrun -prog Kmeans -nodes 4 -real        # reduced scale, really executed and checked
//	cuccrun -prog EP -nodes 32 -split 4        # with §8.3 block redistribution
//	cuccrun -prog Transpose -machine thread -pgas
//	cuccrun -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/csched"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/pgas"
	"cucc/internal/recovery"
	"cucc/internal/simnet"
	"cucc/internal/suites"
	"cucc/internal/trace"
)

func main() {
	progName := flag.String("prog", "VecAdd", "program name (see -list)")
	nodes := flag.Int("nodes", 4, "cluster node count")
	mach := flag.String("machine", "simd", "node type: simd (Intel 6226) or thread (AMD 7713)")
	real := flag.Bool("real", false, "really execute at reduced scale and verify output (default: cost model at paper scale)")
	usePGAS := flag.Bool("pgas", false, "run the PGAS baseline instead of CuCC")
	split := flag.Int("split", 1, "block redistribution factor (GID-only kernels)")
	list := flag.Bool("list", false, "list available programs")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file (-real runs)")
	workers := flag.Int("workers", 0, "intra-node worker-pool width for -real execution (0 = all CPUs)")
	collective := flag.String("collective", "", "phase-2 collective schedule: auto, ring, recdouble, twolevel, pipeline[:N]; append +overlap to start callbacks while chunks are in flight (default: the ring schedule)")
	recover := flag.Bool("recover", false, "enable elastic fault recovery: checkpoint at Allgather barriers, and on a rank loss re-partition over the survivors and replay (bitwise-identical results)")
	recvTimeout := flag.Duration("recv-timeout", time.Minute, "transport receive deadline; a hung rank fails the run instead of deadlocking it (0 = no deadline)")
	showMetrics := flag.Bool("metrics", false, "enable the metrics registry and print its table after the run")
	metricsOut := flag.String("metrics-out", "", "enable the metrics registry and write its JSON snapshot to this file")
	metricsHTTP := flag.String("metrics-http", "", "serve /metrics and /debug/vars on this address (e.g. localhost:8090) for the duration of the run")
	flag.Parse()

	coll, err := csched.ParseChoice(*collective)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Any metrics flag enables the cluster's registry; the session reports
	// into it too.
	var reg *metrics.Registry
	if *showMetrics || *metricsOut != "" || *metricsHTTP != "" {
		reg = metrics.New()
		defer func() {
			if *showMetrics {
				fmt.Print(reg.Snapshot().Table())
			}
			if *metricsOut != "" {
				data, err := reg.Snapshot().JSON()
				if err == nil {
					err = os.WriteFile(*metricsOut, append(data, '\n'), 0o644)
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
			}
		}()
	}
	if *metricsHTTP != "" {
		addr, stop, errc, err := metrics.Serve(*metricsHTTP, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer stop()
		go func() {
			for serr := range errc {
				fmt.Fprintf(os.Stderr, "metrics endpoint: %v\n", serr)
			}
		}()
		fmt.Printf("metrics served on http://%s/metrics\n", addr)
	}

	if *list {
		for _, p := range suites.Registry() {
			md := p.Compiled.Meta[p.Kernel]
			fmt.Printf("  %-15s %s\n", p.Name, md.Summary())
		}
		return
	}

	prog, ok := suites.ByName(*progName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown program %q (try -list)\n", *progName)
		os.Exit(2)
	}

	m := machine.Intel6226()
	if strings.EqualFold(*mach, "thread") {
		m = machine.AMD7713()
	}
	cfg := cluster.Config{Nodes: *nodes, Machine: m, Net: simnet.IB100(), RecvTimeout: *recvTimeout, Metrics: reg}
	if *recover {
		cfg.Recovery = recovery.Policy{Enabled: true}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer c.Close()

	fmt.Printf("program %s on %d x %s over %s\n", prog.Name, *nodes, m, c.Net())
	md := prog.Compiled.Meta[prog.Kernel]
	fmt.Printf("analysis: %s\n", md.Summary())

	if *usePGAS {
		runPGAS(c, prog, *real)
		return
	}

	sess := core.NewSession(c, prog.Compiled)
	sess.Host.Workers = *workers
	sess.Collective = coll
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.New()
		sess.Trace = rec
	}
	var stats *core.Stats
	if *real {
		inst, err := prog.Build(c, prog.Small)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		inst.Spec.BlockSplit = *split
		sess.Verify = true
		stats, err = sess.Launch(inst.Spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := inst.Check(); err != nil {
			fmt.Fprintf(os.Stderr, "output check FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("reduced-scale execution: output verified against Go reference; memory consistent across nodes")
	} else {
		spec := prog.Spec(prog.Default)
		spec.BlockSplit = *split
		stats, err = sess.Estimate(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("paper-scale cost model (use -real for reduced-scale execution)")
	}

	fmt.Printf("  distributed:      %v (tail-divergent: %v)\n", stats.Distributed, stats.TailDivergent)
	fmt.Printf("  blocks/node:      %s (+%d callback blocks on every node)\n", blocksByNode(stats), stats.CallbackBlocks)
	fmt.Printf("  phase 1 compute:  %.3f ms\n", stats.Phase1Sec*1e3)
	fmt.Printf("  allgather:        %.3f ms (%d bytes/node, %d msgs)\n", stats.CommSec*1e3, stats.CommBytesPerNode, stats.CommMsgs)
	if stats.CollectiveAlgo != "" {
		fmt.Printf("  schedule:         %s\n", stats.CollectiveAlgo)
	}
	fmt.Printf("  callback compute: %.3f ms\n", stats.CallbackSec*1e3)
	if stats.OverlapSec > 0 {
		fmt.Printf("  overlap:          %.3f ms hidden behind callbacks\n", stats.OverlapSec*1e3)
	}
	if stats.Restores > 0 {
		fmt.Printf("  restores:         %d (lost nodes %v, repaired and rejoined)\n", stats.Restores, stats.LostNodes)
	}
	fmt.Printf("  total:            %.3f ms\n", stats.TotalSec*1e3)
	if rec != nil {
		raw, err := rec.ChromeTrace()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*traceOut, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s", rec.Summary())
		fmt.Printf("chrome trace written to %s\n", *traceOut)
	}
}

// blocksByNode renders the per-rank phase-1 block counts: the single shared
// count when balanced, the full per-rank list when ranks differ (the
// RemainderImbalanced strategy).
func blocksByNode(stats *core.Stats) string {
	counts := stats.BlocksByNode
	uniform := true
	for _, c := range counts {
		if c != stats.BlocksPerNode {
			uniform = false
			break
		}
	}
	if len(counts) == 0 || uniform {
		return fmt.Sprintf("%d", stats.BlocksPerNode)
	}
	parts := make([]string, len(counts))
	for i, c := range counts {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return fmt.Sprintf("max %d [%s]", stats.BlocksPerNode, strings.Join(parts, " "))
}

func runPGAS(c *cluster.Cluster, prog *suites.Program, real bool) {
	sess := pgas.NewSession(c, prog.Compiled)
	var res *pgas.Result
	if real {
		inst, err := prog.Build(c, prog.Small)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err = sess.Run(inst.Spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("reduced-scale PGAS execution (measured traffic)")
	} else {
		spec := prog.Spec(prog.Default)
		work, err := core.NewSession(c, prog.Compiled).EstimateWork(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res = sess.Estimate(spec.Grid.Count(), work, prog.Traffic(prog.Default, c.N()))
		fmt.Println("paper-scale PGAS cost model")
	}
	fmt.Printf("  remote puts/gets: %d / %d (busiest rank %d / %d)\n", res.RemotePuts, res.RemoteGets, res.MaxRankPuts, res.MaxRankGets)
	fmt.Printf("  owner incast:     %d puts\n", res.IncastPuts)
	fmt.Printf("  compute:          %.3f ms\n", res.CompSec*1e3)
	fmt.Printf("  communication:    %.3f ms\n", res.CommSec*1e3)
	fmt.Printf("  total:            %.3f ms\n", res.TotalSec*1e3)
}
