// Package experiments regenerates every table and figure of the paper's
// evaluation from this repository's implementations: it orchestrates the
// suites, the CuCC and PGAS runtimes, the hardware/network models, the
// scheduler simulator and the throughput model, and formats the results as
// the text tables printed by cmd/cuccbench and the repository benchmarks.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/gpu"
	"cucc/internal/machine"
	"cucc/internal/pgas"
	"cucc/internal/sched"
	"cucc/internal/simnet"
	"cucc/internal/suites"
	"cucc/internal/throughput"
)

// SIMDNodes and ThreadNodes are the paper's cluster sizes (Table 1).
var (
	SIMDNodes   = []int{1, 2, 4, 8, 16, 32}
	ThreadNodes = []int{1, 2, 4}
)

// newCluster builds a simulated cluster or panics (experiment
// configurations are static).
func newCluster(nodes int, m machine.CPU, net simnet.Model) *cluster.Cluster {
	c, err := cluster.New(cluster.Config{Nodes: nodes, Machine: m, Net: net})
	if err != nil {
		panic(err)
	}
	return c
}

// CuCCStats estimates one program's CuCC execution at paper scale.
func CuCCStats(p *suites.Program, m machine.CPU, net simnet.Model, nodes int, exec machine.ExecConfig) *core.Stats {
	c := newCluster(nodes, m, net)
	defer c.Close()
	sess := core.NewSession(c, p.Compiled)
	sess.Exec = exec
	st, err := sess.Estimate(p.Spec(p.Default))
	if err != nil {
		panic(fmt.Sprintf("%s @%d nodes: %v", p.Name, nodes, err))
	}
	return st
}

// PGASStats estimates one program's PGAS execution at paper scale.
func PGASStats(p *suites.Program, m machine.CPU, net simnet.Model, nodes int) *pgas.Result {
	c := newCluster(nodes, m, net)
	defer c.Close()
	sess := pgas.NewSession(c, p.Compiled)
	spec := p.Spec(p.Default)
	blocks := spec.Grid.Count()
	work, err := core.NewSession(c, p.Compiled).EstimateWork(spec)
	if err != nil {
		panic(err)
	}
	// Split the measured flops by the program's vectorizable fraction for
	// the CPU cost model (same convention as the CuCC path).
	return sess.Estimate(blocks, work, p.Traffic(p.Default, nodes))
}

// GPUTime estimates one program's runtime on a GPU at paper scale.
func GPUTime(p *suites.Program, g gpu.GPU) float64 {
	c := newCluster(1, machine.Intel6226(), simnet.IB100())
	defer c.Close()
	spec := p.Spec(p.Default)
	work, err := core.NewSession(c, p.Compiled).EstimateWork(spec)
	if err != nil {
		panic(err)
	}
	g.ComputeEff = p.GPUComputeEff
	g.MemEff = p.GPUMemEff
	return g.KernelTime(spec.Grid.Count(), work)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// --- Figure 1 ---

// Fig1Result holds the scheduler-simulation outcome.
type Fig1Result struct {
	Stats            []sched.WaitStats
	CPUMean, GPUMean float64
}

// Fig1 simulates one week of the PACE-like partitions.
func Fig1() Fig1Result {
	stats := sched.SimulateAll(sched.PACEDefault(), 7, 42)
	cpu, gpuW := sched.Compare(stats)
	return Fig1Result{Stats: stats, CPUMean: cpu, GPUMean: gpuW}
}

func (r Fig1Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 1: job waiting times per partition (1 simulated week)\n")
	for _, s := range r.Stats {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	fmt.Fprintf(&b, "  mean wait: CPU partitions %.2fh, GPU partitions %.2fh (%.1fx)\n",
		r.CPUMean, r.GPUMean, r.GPUMean/math.Max(r.CPUMean, 1e-9))
	return b.String()
}

// --- Figure 3 / §2.3: Allgather variants ---

// Fig3Row compares Allgather variants at one node count.
type Fig3Row struct {
	Nodes                int
	InPlaceSec           float64
	OutOfPlaceSec        float64
	ImbalancedSec        float64
	RecursiveDoublingSec float64
}

// Fig3 evaluates the variants for a fixed total payload.
func Fig3(totalBytes int64) []Fig3Row {
	net := simnet.IB100()
	var rows []Fig3Row
	for _, n := range []int{2, 4, 8, 16, 32} {
		per := totalBytes / int64(n)
		chunks := make([]int64, n)
		for i := range chunks {
			chunks[i] = per
		}
		// Imbalanced: first node holds 2x, second 0x (same total).
		imb := append([]int64(nil), chunks...)
		imb[0], imb[1] = 2*per, 0
		rows = append(rows, Fig3Row{
			Nodes:                n,
			InPlaceSec:           net.RingAllgather(n, per),
			OutOfPlaceSec:        net.RingAllgather(n, per) + net.OutOfPlacePenalty(totalBytes),
			ImbalancedSec:        net.AllgatherV(imb),
			RecursiveDoublingSec: net.RecursiveDoublingAllgather(n, per),
		})
	}
	return rows
}

// Fig3String renders the comparison.
func Fig3String(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3 / §2.3: Allgather variants (total payload fixed)\n")
	b.WriteString("  nodes  in-place    out-of-place  imbalanced  rec-doubling\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %5d  %9.3fms  %11.3fms  %9.3fms  %11.3fms\n",
			r.Nodes, r.InPlaceSec*1e3, r.OutOfPlaceSec*1e3, r.ImbalancedSec*1e3, r.RecursiveDoublingSec*1e3)
	}
	return b.String()
}

// --- Figures 4, 8, 9, 10: scaling and PGAS comparison ---

// ScalingRow is one program's runtime across cluster sizes.
type ScalingRow struct {
	Program string
	Nodes   []int
	// CuCCSec / PGASSec are runtimes per node count.
	CuCCSec []float64
	PGASSec []float64
	// CommFrac is the CuCC network-overhead fraction per node count
	// (Figure 9).
	CommFrac []float64
}

// Scaling computes CuCC and PGAS runtimes for every program over the node
// counts on the given machine (paper scale).
func Scaling(progs []*suites.Program, m machine.CPU, nodes []int) []ScalingRow {
	net := simnet.IB100()
	rows := make([]ScalingRow, 0, len(progs))
	for _, p := range progs {
		row := ScalingRow{Program: p.Name, Nodes: nodes}
		for _, n := range nodes {
			st := CuCCStats(p, m, net, n, machine.DefaultConfig())
			row.CuCCSec = append(row.CuCCSec, st.TotalSec)
			row.CommFrac = append(row.CommFrac, st.CommSec/st.TotalSec)
			pr := PGASStats(p, m, net, n)
			row.PGASSec = append(row.PGASSec, pr.TotalSec)
		}
		rows = append(rows, row)
	}
	return rows
}

// SpeedupString renders Figure 8: strong-scaling speedups over one node.
func SpeedupString(rows []ScalingRow, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (speedup over 1 node; runtime at 1 node)\n", title)
	fmt.Fprintf(&b, "  %-15s", "program")
	for _, n := range rows[0].Nodes {
		fmt.Fprintf(&b, "  %5dN", n)
	}
	b.WriteString("      t(1)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-15s", r.Program)
		for i := range r.Nodes {
			fmt.Fprintf(&b, "  %5.2fx", r.CuCCSec[0]/r.CuCCSec[i])
		}
		fmt.Fprintf(&b, "  %8.2fms\n", r.CuCCSec[0]*1e3)
	}
	return b.String()
}

// Fig9String renders the network overhead fractions.
func Fig9String(rows []ScalingRow) string {
	var b strings.Builder
	b.WriteString("Figure 9: network overhead fraction of CuCC runtime (SIMD-Focused)\n")
	fmt.Fprintf(&b, "  %-15s", "program")
	for _, n := range rows[0].Nodes {
		fmt.Fprintf(&b, "  %5dN", n)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-15s", r.Program)
		for i := range r.Nodes {
			fmt.Fprintf(&b, "  %5.1f%%", r.CommFrac[i]*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig10Summary is the headline CuCC-vs-PGAS comparison.
type Fig10Summary struct {
	Rows []ScalingRow
	// AvgSpeedup2N / AvgSpeedup32N are the mean PGAS/CuCC ratios with the
	// Transpose outlier excluded, as in the paper (4.09x and 12.81x).
	AvgSpeedup2N  float64
	AvgSpeedup32N float64
	// TransposeSpeedup32N is the excluded outlier's ratio.
	TransposeSpeedup32N float64
}

// Fig10 computes the PGAS comparison on the SIMD-Focused cluster.
func Fig10(rows []ScalingRow) Fig10Summary {
	s := Fig10Summary{Rows: rows}
	var at2, at32 []float64
	for _, r := range rows {
		i2, i32 := -1, -1
		for i, n := range r.Nodes {
			if n == 2 {
				i2 = i
			}
			if n == 32 {
				i32 = i
			}
		}
		if i2 < 0 || i32 < 0 {
			continue
		}
		ratio32 := r.PGASSec[i32] / r.CuCCSec[i32]
		if r.Program == "Transpose" {
			s.TransposeSpeedup32N = ratio32
			continue
		}
		at2 = append(at2, r.PGASSec[i2]/r.CuCCSec[i2])
		at32 = append(at32, ratio32)
	}
	s.AvgSpeedup2N = mean(at2)
	s.AvgSpeedup32N = mean(at32)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func (s Fig10Summary) String() string {
	var b strings.Builder
	b.WriteString("Figure 10: CuCC vs PGAS runtime ratio (PGAS/CuCC, SIMD-Focused)\n")
	fmt.Fprintf(&b, "  %-15s", "program")
	for _, n := range s.Rows[0].Nodes {
		fmt.Fprintf(&b, "  %7dN", n)
	}
	b.WriteString("\n")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "  %-15s", r.Program)
		for i := range r.Nodes {
			fmt.Fprintf(&b, "  %7.2fx", r.PGASSec[i]/r.CuCCSec[i])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  avg speedup excl. Transpose: %.2fx @2 nodes, %.2fx @32 nodes (paper: 4.09x, 12.81x)\n",
		s.AvgSpeedup2N, s.AvgSpeedup32N)
	fmt.Fprintf(&b, "  Transpose outlier @32 nodes: %.0fx\n", s.TransposeSpeedup32N)
	return b.String()
}

// --- Figure 11: CPU clusters vs GPUs ---

// Fig11Row compares one program's best CPU-cluster runtime against GPUs.
type Fig11Row struct {
	Program         string
	SIMDBestSec     float64
	SIMDBestNodes   int
	ThreadBestSec   float64
	ThreadBestNodes int
	V100Sec         float64
	A100Sec         float64
}

// Fig11 computes the runtime comparison (best cluster size per platform,
// as the paper reports).
func Fig11(progs []*suites.Program) []Fig11Row {
	net := simnet.IB100()
	rows := make([]Fig11Row, 0, len(progs))
	for _, p := range progs {
		row := Fig11Row{Program: p.Name}
		row.SIMDBestSec, row.SIMDBestNodes = bestTime(p, machine.Intel6226(), net, SIMDNodes)
		row.ThreadBestSec, row.ThreadBestNodes = bestTime(p, machine.AMD7713(), net, ThreadNodes)
		row.V100Sec = GPUTime(p, gpu.V100())
		row.A100Sec = GPUTime(p, gpu.A100())
		rows = append(rows, row)
	}
	return rows
}

func bestTime(p *suites.Program, m machine.CPU, net simnet.Model, nodes []int) (float64, int) {
	best, bestN := math.Inf(1), 0
	for _, n := range nodes {
		st := CuCCStats(p, m, net, n, machine.DefaultConfig())
		if st.TotalSec < best {
			best, bestN = st.TotalSec, n
		}
	}
	return best, bestN
}

// Fig11Geomeans summarizes slowdowns versus each GPU.
type Fig11Geomeans struct {
	SIMDvsV100, SIMDvsA100     float64
	ThreadvsV100, ThreadvsA100 float64
}

// Geomeans computes the paper's headline slowdown factors.
func Geomeans(rows []Fig11Row) Fig11Geomeans {
	var sv, sa, tv, ta []float64
	for _, r := range rows {
		sv = append(sv, r.SIMDBestSec/r.V100Sec)
		sa = append(sa, r.SIMDBestSec/r.A100Sec)
		tv = append(tv, r.ThreadBestSec/r.V100Sec)
		ta = append(ta, r.ThreadBestSec/r.A100Sec)
	}
	return Fig11Geomeans{
		SIMDvsV100: geomean(sv), SIMDvsA100: geomean(sa),
		ThreadvsV100: geomean(tv), ThreadvsA100: geomean(ta),
	}
}

// Fig11String renders the comparison.
func Fig11String(rows []Fig11Row) string {
	var b strings.Builder
	b.WriteString("Figure 11: best CPU-cluster runtime vs GPUs\n")
	fmt.Fprintf(&b, "  %-15s %14s %16s %12s %12s\n", "program", "SIMD (nodes)", "Thread (nodes)", "V100", "A100")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-15s %9.2fms(%2d) %11.2fms(%2d) %10.2fms %10.2fms\n",
			r.Program, r.SIMDBestSec*1e3, r.SIMDBestNodes,
			r.ThreadBestSec*1e3, r.ThreadBestNodes, r.V100Sec*1e3, r.A100Sec*1e3)
	}
	g := Geomeans(rows)
	fmt.Fprintf(&b, "  geomean slowdown: SIMD %.2fx/%.2fx vs V100/A100 (paper 2.55/4.14); Thread %.2fx/%.2fx (paper 1.57/2.54)\n",
		g.SIMDvsV100, g.SIMDvsA100, g.ThreadvsV100, g.ThreadvsA100)
	return b.String()
}

// --- Figure 12: cluster-wide throughput ---

// Fig12 evaluates Lonestar6-wide throughput for every program.
func Fig12(progs []*suites.Program) ([]throughput.Result, float64) {
	net := simnet.IB100()
	inv := throughput.Lonestar6()
	perf := make([]throughput.ProgramPerf, 0, len(progs))
	for _, p := range progs {
		pp := throughput.ProgramPerf{
			Name:          p.Name,
			GPUSec:        GPUTime(p, gpu.A100()),
			CPUSecByNodes: map[int]float64{},
		}
		for _, n := range ThreadNodes {
			st := CuCCStats(p, machine.AMD7713(), net, n, machine.DefaultConfig())
			pp.CPUSecByNodes[n] = st.TotalSec
		}
		perf = append(perf, pp)
	}
	return throughput.EvaluateAll(inv, perf)
}

// Fig12String renders the throughput comparison.
func Fig12String(rs []throughput.Result, avg float64) string {
	var b strings.Builder
	b.WriteString("Figure 12: Lonestar6 cluster-wide throughput, GPUs vs GPUs+CPUs\n")
	for _, r := range rs {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	fmt.Fprintf(&b, "  average throughput gain: %.2fx (paper: 3.59x; abstract headline 2.59x)\n", avg)
	return b.String()
}

// --- Figure 13 / §8.2: iso-FLOP architecture comparison ---

// Fig13Row compares the two architectures at equal peak FLOPs.
type Fig13Row struct {
	Program   string
	SIMDSec   []float64 // per node count 1,2,4
	ThreadSec []float64 // 64-core capped
}

// Fig13 runs the §8.2 comparison: Thread-Focused nodes capped at 64 cores
// (4.096 TFLOPs) vs SIMD-Focused nodes (4.147 TFLOPs).
func Fig13(progs []*suites.Program) []Fig13Row {
	net := simnet.IB100()
	capped := machine.ExecConfig{SIMD: true, CoresCap: 64}
	rows := make([]Fig13Row, 0, len(progs))
	for _, p := range progs {
		row := Fig13Row{Program: p.Name}
		for _, n := range ThreadNodes {
			s := CuCCStats(p, machine.Intel6226(), net, n, machine.DefaultConfig())
			t := CuCCStats(p, machine.AMD7713(), net, n, capped)
			row.SIMDSec = append(row.SIMDSec, s.TotalSec)
			row.ThreadSec = append(row.ThreadSec, t.TotalSec)
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig13String renders the iso-FLOP comparison with per-size geomeans.
func Fig13String(rows []Fig13Row) string {
	var b strings.Builder
	b.WriteString("Figure 13 / §8.2: SIMD-Focused vs Thread-Focused (64-core cap), ratio SIMD/Thread\n")
	fmt.Fprintf(&b, "  %-15s %7s %7s %7s\n", "program", "1N", "2N", "4N")
	ratios := make([][]float64, len(ThreadNodes))
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-15s", r.Program)
		for i := range ThreadNodes {
			ratio := r.SIMDSec[i] / r.ThreadSec[i]
			ratios[i] = append(ratios[i], ratio)
			fmt.Fprintf(&b, " %6.2fx", ratio)
		}
		b.WriteString("\n")
	}
	b.WriteString("  geomean: ")
	for i, n := range ThreadNodes {
		fmt.Fprintf(&b, "%dN %.2fx  ", n, geomean(ratios[i]))
	}
	b.WriteString("(paper: 4.61/4.66/4.32)\n")
	return b.String()
}

// --- Table 1 ---

// Table1String renders the cluster specifications.
func Table1String() string {
	var b strings.Builder
	b.WriteString("Table 1: cluster specifications\n")
	fmt.Fprintf(&b, "  %-15s %-28s %5s %6s %7s\n", "name", "single node", "year", "cores", "TFLOPs")
	simd, thread := machine.Intel6226(), machine.AMD7713()
	fmt.Fprintf(&b, "  %-15s %-28s %5d %6d %7.2f\n", "SIMD-Focused", simd.Name, simd.Year, simd.Cores(), simd.PeakTFLOPs())
	fmt.Fprintf(&b, "  %-15s %-28s %5d %6d %7.2f\n", "Thread-Focused", thread.Name, thread.Year, thread.Cores(), thread.PeakTFLOPs())
	for _, g := range []gpu.GPU{gpu.A100(), gpu.V100()} {
		fmt.Fprintf(&b, "  %-15s %-28s %5d %6d %7.2f\n", g.Name, g.Name, g.Year, g.SMs, g.PeakTFLOPs)
	}
	return b.String()
}
