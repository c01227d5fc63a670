package cucc

import (
	"fmt"
	"runtime"
	"testing"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/csched"
	"cucc/internal/experiments"
	"cucc/internal/interp"
	"cucc/internal/kir"
	"cucc/internal/machine"
	"cucc/internal/pgas"
	"cucc/internal/simnet"
	"cucc/internal/suites"
	"cucc/internal/transport"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`).  Headline values are
// attached as benchmark metrics; the full text tables come from
// cmd/cuccbench.

// BenchmarkFig1WaitingTimes regenerates Figure 1: CPU vs GPU partition
// waiting times on a PACE-like cluster.
func BenchmarkFig1WaitingTimes(b *testing.B) {
	var r experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig1()
	}
	b.ReportMetric(r.CPUMean, "cpu-wait-h")
	b.ReportMetric(r.GPUMean, "gpu-wait-h")
}

// BenchmarkFig3Allgather regenerates the §2.3 Allgather variant comparison
// behind Figure 3: balanced-in-place must win.
func BenchmarkFig3Allgather(b *testing.B) {
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig3(64 << 20)
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.InPlaceSec*1e3, "inplace-ms@32")
	b.ReportMetric(last.OutOfPlaceSec*1e3, "outofplace-ms@32")
	b.ReportMetric(last.ImbalancedSec*1e3, "imbalanced-ms@32")
}

// BenchmarkFig4PGAS regenerates Figure 4: PGAS migration scalability.
func BenchmarkFig4PGAS(b *testing.B) {
	progs := suites.All()
	var rows []experiments.ScalingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Scaling(progs, machine.Intel6226(), experiments.SIMDNodes)
	}
	// Attach each program's 32-node PGAS speedup over 1 node.
	for _, r := range rows {
		b.ReportMetric(r.PGASSec[0]/r.PGASSec[len(r.PGASSec)-1], r.Program+"-pgas-speedup@32")
	}
}

// BenchmarkFig7Coverage regenerates Figure 7: Allgather-distributable
// coverage of the BERT/ViT/Hetero-Mark kernel suites.
func BenchmarkFig7Coverage(b *testing.B) {
	var counts []suites.CoverageCounts
	for i := 0; i < b.N; i++ {
		counts = suites.CountCoverage()
	}
	for _, c := range counts {
		b.ReportMetric(float64(c.Distributable), c.Suite+"-distributable")
	}
}

// BenchmarkFig8Scalability regenerates Figure 8: CuCC strong scaling on
// both cluster types.
func BenchmarkFig8Scalability(b *testing.B) {
	progs := suites.All()
	var simd, thread []experiments.ScalingRow
	for i := 0; i < b.N; i++ {
		simd = experiments.Scaling(progs, machine.Intel6226(), experiments.SIMDNodes)
		thread = experiments.Scaling(progs, machine.AMD7713(), experiments.ThreadNodes)
	}
	for _, r := range simd {
		b.ReportMetric(r.CuCCSec[0]/r.CuCCSec[len(r.CuCCSec)-1], r.Program+"-speedup@32")
	}
	_ = thread
}

// BenchmarkFig9Overhead regenerates Figure 9: the network overhead
// fraction of CuCC runtime per program.
func BenchmarkFig9Overhead(b *testing.B) {
	progs := suites.All()
	var rows []experiments.ScalingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Scaling(progs, machine.Intel6226(), experiments.SIMDNodes)
	}
	for _, r := range rows {
		b.ReportMetric(100*r.CommFrac[len(r.CommFrac)-1], r.Program+"-comm-pct@32")
	}
}

// BenchmarkFig10CuCCvsPGAS regenerates Figure 10: the CuCC-vs-PGAS
// comparison (paper: 4.09x @2 nodes, 12.81x @32 nodes excl. Transpose).
func BenchmarkFig10CuCCvsPGAS(b *testing.B) {
	progs := suites.All()
	var sum experiments.Fig10Summary
	for i := 0; i < b.N; i++ {
		rows := experiments.Scaling(progs, machine.Intel6226(), experiments.SIMDNodes)
		sum = experiments.Fig10(rows)
	}
	b.ReportMetric(sum.AvgSpeedup2N, "avg-speedup@2")
	b.ReportMetric(sum.AvgSpeedup32N, "avg-speedup@32")
	b.ReportMetric(sum.TransposeSpeedup32N, "transpose-outlier@32")
}

// BenchmarkFig11CPUvsGPU regenerates Figure 11: best CPU-cluster runtimes
// vs V100/A100 (paper geomeans: SIMD 2.55x/4.14x, Thread 1.57x/2.54x).
func BenchmarkFig11CPUvsGPU(b *testing.B) {
	progs := suites.All()
	var g experiments.Fig11Geomeans
	for i := 0; i < b.N; i++ {
		g = experiments.Geomeans(experiments.Fig11(progs))
	}
	b.ReportMetric(g.SIMDvsV100, "simd-vs-v100")
	b.ReportMetric(g.SIMDvsA100, "simd-vs-a100")
	b.ReportMetric(g.ThreadvsV100, "thread-vs-v100")
	b.ReportMetric(g.ThreadvsA100, "thread-vs-a100")
}

// BenchmarkFig12Throughput regenerates Figure 12: Lonestar6 cluster-wide
// throughput (paper average: 3.59x; abstract headline 2.59x).
func BenchmarkFig12Throughput(b *testing.B) {
	progs := suites.All()
	var avg float64
	for i := 0; i < b.N; i++ {
		_, avg = experiments.Fig12(progs)
	}
	b.ReportMetric(avg, "avg-throughput-gain")
}

// BenchmarkFig13ArchComparison regenerates Figure 13 / §8.2: SIMD-Focused
// vs 64-core-capped Thread-Focused at iso peak FLOPs (paper geomeans:
// 4.61x/4.66x/4.32x at 1/2/4 nodes).
func BenchmarkFig13ArchComparison(b *testing.B) {
	progs := suites.All()
	var rows []experiments.Fig13Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig13(progs)
	}
	for _, r := range rows {
		b.ReportMetric(r.SIMDSec[2]/r.ThreadSec[2], r.Program+"-ratio@4N")
	}
}

// --- Ablation benchmarks for the design choices in DESIGN.md ---

// BenchmarkAblationAllgatherAlgo compares the ring and recursive-doubling
// Allgather schedules executing for real over the in-process transport.
func BenchmarkAblationAllgatherAlgo(b *testing.B) {
	const nodes = 8
	const chunk = 1 << 16
	offs := make([]int, nodes+1)
	for r := range offs {
		offs[r] = r * chunk
	}
	run := func(b *testing.B, s *csched.Schedule) {
		net := transport.NewInproc(nodes)
		defer net.Close()
		bufs := make([][]byte, nodes)
		for r := range bufs {
			bufs[r] = make([]byte, nodes*chunk)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			done := make(chan error, nodes)
			for r := 0; r < nodes; r++ {
				go func(r int) {
					_, err := csched.Execute(net.Conn(r), bufs[r], offs, s)
					done <- err
				}(r)
			}
			for r := 0; r < nodes; r++ {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
		}
		b.SetBytes(int64((nodes - 1) * chunk))
	}
	b.Run("ring", func(b *testing.B) { run(b, csched.GenRing(nodes, 1)) })
	b.Run("recursive-doubling", func(b *testing.B) { run(b, csched.GenRecDouble(nodes)) })
}

// BenchmarkAblationImbalance quantifies the cost of imbalanced block
// partitions: the modeled Allgather slows as one node's chunk grows.
func BenchmarkAblationImbalance(b *testing.B) {
	net := simnet.IB100()
	const nodes = 8
	const per = int64(8 << 20)
	var balanced, skewed float64
	for i := 0; i < b.N; i++ {
		chunks := make([]int64, nodes)
		for j := range chunks {
			chunks[j] = per
		}
		balanced = net.AllgatherV(chunks)
		chunks[0], chunks[1] = per*2, 0
		skewed = net.AllgatherV(chunks)
	}
	b.ReportMetric(skewed/balanced, "imbalance-slowdown")
}

// BenchmarkAblationBlockSplit measures the §8.3 workload-redistribution
// extension on EP (512 blocks cannot fill a 32-node SIMD cluster; splitting
// blocks 4-way can).
func BenchmarkAblationBlockSplit(b *testing.B) {
	p := suites.EP()
	c, err := cluster.New(cluster.Config{Nodes: 32, Machine: machine.Intel6226(), Net: simnet.IB100()})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sess := core.NewSession(c, p.Compiled)
	var base, split float64
	for i := 0; i < b.N; i++ {
		spec := p.Spec(p.Default)
		st, err := sess.Estimate(spec)
		if err != nil {
			b.Fatal(err)
		}
		base = st.TotalSec
		spec.BlockSplit = 4
		st, err = sess.Estimate(spec)
		if err != nil {
			b.Fatal(err)
		}
		split = st.TotalSec
	}
	b.ReportMetric(base*1e3, "ep-ms")
	b.ReportMetric(split*1e3, "ep-split4-ms")
	b.ReportMetric(base/split, "split-speedup")
}

// BenchmarkAblationBandwidth runs the paper's §10 outlook: CuCC's
// communication-bound kernel (Transpose) on 100/400/800 Gb/s fabrics.
func BenchmarkAblationBandwidth(b *testing.B) {
	p := suites.Transpose()
	var times [3]float64
	nets := []simnet.Model{simnet.IB100(), simnet.IB400(), simnet.IB800()}
	for i := 0; i < b.N; i++ {
		for j, net := range nets {
			st := experiments.CuCCStats(p, machine.Intel6226(), net, 32, machine.DefaultConfig())
			times[j] = st.TotalSec
		}
	}
	b.ReportMetric(times[0]*1e3, "transpose-ms@100G")
	b.ReportMetric(times[1]*1e3, "transpose-ms@400G")
	b.ReportMetric(times[2]*1e3, "transpose-ms@800G")
}

// BenchmarkRealExecution measures actual wall-clock distributed execution
// (native backends, 4 nodes, reduced scale) for every evaluation program:
// the end-to-end cost of the runtime itself, not the cost model.
func BenchmarkRealExecution(b *testing.B) {
	for _, p := range suites.All() {
		b.Run(p.Name, func(b *testing.B) {
			c, err := cluster.New(cluster.Config{Nodes: 4, Machine: machine.Intel6226(), Net: simnet.IB100()})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			inst, err := p.Build(c, p.Small)
			if err != nil {
				b.Fatal(err)
			}
			sess := core.NewSession(c, p.Compiled)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Launch(inst.Spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInterpreter measures the reference interpreter's block
// execution rate.
func BenchmarkInterpreter(b *testing.B) {
	p := suites.VecAdd()
	c, err := cluster.New(cluster.Config{Nodes: 1, Machine: machine.Intel6226(), Net: simnet.IB100()})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	inst, err := p.Build(c, p.Small)
	if err != nil {
		b.Fatal(err)
	}
	inst.Spec.UseInterp = true
	sess := core.NewSession(c, p.Compiled)
	sess.Host.Engine = cluster.EngineInterp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Launch(inst.Spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngines compares the IR execution engines on every
// evaluation-suite program at reduced scale: 1 node, a single worker,
// natives disabled, so the measured wall time is pure engine speed.  Nothing
// enforces a ratio between the engines; DESIGN.md states the measured one.
// A traced run of the repository benchmark probes the same single-worker
// launches as its <engine>.exec_ms.* rows.
func BenchmarkEngines(b *testing.B) {
	engines := []struct {
		name string
		eng  cluster.Engine
	}{{"vm-lanes", cluster.EngineVMLanes}, {"interp", cluster.EngineInterp}}
	progs := append([]*suites.Program{suites.VecAdd()}, suites.All()...)
	for _, p := range progs {
		for _, e := range engines {
			b.Run(p.Name+"/"+e.name, func(b *testing.B) {
				c, err := cluster.New(cluster.Config{Nodes: 1, Machine: machine.Intel6226(), Net: simnet.IB100()})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				inst, err := p.Build(c, p.Small)
				if err != nil {
					b.Fatal(err)
				}
				inst.Spec.UseInterp = true
				sess := core.NewSession(c, p.Compiled)
				sess.Host.Workers = 1
				sess.Host.Engine = e.eng
				blocks := inst.Spec.Grid.Count()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sess.Launch(inst.Spec); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(blocks)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
			})
		}
	}
}

// BenchmarkAnalysis measures the compiler analysis over the whole coverage
// suite (34 kernels).
func BenchmarkAnalysis(b *testing.B) {
	kernels := suites.CoverageSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ck := range kernels {
			if md := ck.Classify(); md == nil {
				b.Fatal("nil metadata")
			}
		}
	}
	b.ReportMetric(float64(len(kernels)), "kernels")
}

// Example of regenerating one figure programmatically.
func ExampleFig10() {
	rows := experiments.Scaling(suites.All(), machine.Intel6226(), []int{1, 2, 32})
	sum := experiments.Fig10(rows)
	fmt.Println(sum.AvgSpeedup32N > sum.AvgSpeedup2N)
	// Output: true
}

// BenchmarkAblationRemainderStrategy compares the paper's callback-block
// design against the imbalanced-Allgatherv alternative on the Kmeans
// 313-block / 32-node configuration where callbacks cost an extra wave.
func BenchmarkAblationRemainderStrategy(b *testing.B) {
	p := suites.Kmeans()
	c, err := cluster.New(cluster.Config{Nodes: 32, Machine: machine.Intel6226(), Net: simnet.IB100()})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sess := core.NewSession(c, p.Compiled)
	var cb, im float64
	for i := 0; i < b.N; i++ {
		spec := p.Spec(p.Default)
		st, err := sess.Estimate(spec)
		if err != nil {
			b.Fatal(err)
		}
		cb = st.TotalSec
		spec.Remainder = core.RemainderImbalanced
		st, err = sess.Estimate(spec)
		if err != nil {
			b.Fatal(err)
		}
		im = st.TotalSec
	}
	b.ReportMetric(cb*1e3, "kmeans-callback-ms")
	b.ReportMetric(im*1e3, "kmeans-imbalanced-ms")
	b.ReportMetric(cb/im, "imbalanced-gain")
}

// BenchmarkAblationPGASPolicy compares the naive rank-0 PGAS allocation
// (the paper's Listing 3) against a tuned block-distributed allocation on
// the same workload: even tuned PGAS keeps per-access library overhead, so
// CuCC's collective still wins, but the rank-0 incast is what makes the
// naive migration pathological.
func BenchmarkAblationPGASPolicy(b *testing.B) {
	p := suites.Kmeans()
	var naive, tuned, cucc float64
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Config{Nodes: 8, Machine: machine.Intel6226(), Net: simnet.IB100()})
		if err != nil {
			b.Fatal(err)
		}
		inst, err := p.Build(c, p.Small)
		if err != nil {
			b.Fatal(err)
		}
		ps := pgas.NewSession(c, p.Compiled)
		res, err := ps.Run(inst.Spec)
		if err != nil {
			b.Fatal(err)
		}
		naive = res.TotalSec
		c.Close()

		c2, err := cluster.New(cluster.Config{Nodes: 8, Machine: machine.Intel6226(), Net: simnet.IB100()})
		if err != nil {
			b.Fatal(err)
		}
		inst2, err := p.Build(c2, p.Small)
		if err != nil {
			b.Fatal(err)
		}
		ps2 := pgas.NewSession(c2, p.Compiled)
		ps2.Policy = pgas.BlockDistributed
		res2, err := ps2.Run(inst2.Spec)
		if err != nil {
			b.Fatal(err)
		}
		tuned = res2.TotalSec

		cs := core.NewSession(c2, p.Compiled)
		st, err := cs.Launch(inst2.Spec)
		if err != nil {
			b.Fatal(err)
		}
		cucc = st.TotalSec
		c2.Close()
	}
	b.ReportMetric(naive*1e6, "pgas-rank0-us")
	b.ReportMetric(tuned*1e6, "pgas-blockdist-us")
	b.ReportMetric(cucc*1e6, "cucc-us")
}

// BenchmarkSection84Energy regenerates the §8.4 cost/energy comparison.
func BenchmarkSection84Energy(b *testing.B) {
	progs := suites.All()
	var rows []experiments.EnergyRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Energy(progs)
	}
	var cpuE, gpuE float64
	for _, r := range rows {
		cpuE += r.CPUJoules
		gpuE += r.GPUJoules
	}
	b.ReportMetric(cpuE/gpuE, "energy-ratio-cpu/gpu")
}

// BenchmarkAblationSIMDOff regenerates the §8.2 vectorization ablation.
func BenchmarkAblationSIMDOff(b *testing.B) {
	progs := suites.All()
	var rows []experiments.SIMDOffRow
	for i := 0; i < b.N; i++ {
		rows = experiments.SIMDOff(progs)
	}
	for _, r := range rows {
		b.ReportMetric(r.Slowdown, r.Program+"-simdoff-slowdown")
	}
}

// BenchmarkIntraNodeWorkers measures the wall-clock effect of the per-node
// worker pool: the same compute-heavy interpreted launch with a sequential
// pool vs one worker per CPU.  On multi-core hardware the wide pool should
// approach a NumCPU-times speedup (the launch is embarrassingly parallel
// across blocks); simulated-time stats are identical either way (tested in
// internal/core).
func BenchmarkIntraNodeWorkers(b *testing.B) {
	prog := core.MustCompile(`
__global__ void crunch(int* out, int n, int rounds) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) {
        int v = id;
        for (int h = 0; h < rounds; h++)
            v = (v * 31 + 7) % 65537;
        out[id] = v;
    }
}`)
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c, err := cluster.New(cluster.Config{Nodes: 1, Machine: machine.Intel6226(), Net: simnet.IB100()})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			const blocks, bs = 64, 64
			out := c.Alloc(kir.I32, blocks*bs)
			sess := core.NewSession(c, prog)
			sess.Host.Workers = workers
			spec := core.LaunchSpec{
				Kernel: "crunch",
				Grid:   interp.Dim1(blocks),
				Block:  interp.Dim1(bs),
				Args:   []core.Arg{core.BufArg(out), core.IntArg(blocks * bs), core.IntArg(2000)},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Launch(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWeakScaling runs the weak-scaling sweep (total work grows with
// node count), complementing the paper's strong-scaling Figure 8.
func BenchmarkWeakScaling(b *testing.B) {
	progs := suites.All()
	var rows []experiments.WeakRow
	for i := 0; i < b.N; i++ {
		rows = experiments.WeakScaling(progs, []int{1, 2, 4, 8, 16, 32})
	}
	for _, r := range rows {
		b.ReportMetric(r.Efficiency[len(r.Efficiency)-1], r.Program+"-weak-eff@32")
	}
}
