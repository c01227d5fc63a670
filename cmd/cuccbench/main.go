// Command cuccbench regenerates the paper's tables and figures as text
// reports from the repository's implementations.
//
// Usage:
//
//	cuccbench            # all figures
//	cuccbench -fig 8     # one figure (1, 3, 4, 7, 8, 9, 10, 11, 12, 13)
//	cuccbench -table 1   # Table 1
package main

import (
	"flag"
	"fmt"
	"os"

	"cucc/internal/experiments"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/suites"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (0 = all)")
	table := flag.Int("table", 0, "table number to regenerate")
	csvDir := flag.String("csv", "", "also write per-figure CSV data files into this directory")
	workers := flag.Int("workers", 0, "intra-node worker-pool width of the -json engine microbenchmark (0 = 1)")
	jsonOut := flag.String("json", "", "instead of figures, run the engine microbenchmark (vm-lanes vs interp over the evaluation suite) and write a JSON report to this file")
	metricsOut := flag.String("metrics-out", "", "with -json, enable the metrics registry for the engine microbenchmark and write its JSON snapshot to this file")
	flag.Parse()

	// The figures only run the cost model, which records no metrics.
	if *metricsOut != "" && *jsonOut == "" {
		fmt.Fprintln(os.Stderr, "-metrics-out needs -json: the figures record no metrics")
		os.Exit(2)
	}
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.New()
		defer func() {
			data, err := reg.Snapshot().JSON()
			if err == nil {
				err = os.WriteFile(*metricsOut, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
		}()
	}

	if *jsonOut != "" {
		if err := writeEngineBench(*jsonOut, *workers, reg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *csvDir != "" {
		if err := experiments.WriteCSVs(*csvDir, suites.All()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d CSV files to %s\n", len(experiments.CSVFiles()), *csvDir)
	}

	if *table == 1 {
		fmt.Print(experiments.Table1String())
		return
	}
	if *table != 0 {
		fmt.Fprintf(os.Stderr, "unknown table %d\n", *table)
		os.Exit(2)
	}

	progs := suites.All()
	want := func(n int) bool { return *fig == 0 || *fig == n }

	if want(1) {
		fmt.Println(experiments.Fig1())
	}
	if want(3) {
		fmt.Println(experiments.Fig3String(experiments.Fig3(64 << 20)))
	}
	var simdRows []experiments.ScalingRow
	if want(4) || want(8) || want(9) || want(10) {
		simdRows = experiments.Scaling(progs, machine.Intel6226(), experiments.SIMDNodes)
	}
	if want(4) {
		fmt.Println(fig4String(simdRows))
	}
	if want(7) {
		fmt.Println(fig7String())
	}
	if want(8) {
		fmt.Println(experiments.SpeedupString(simdRows, "Figure 8a: CuCC strong scaling, SIMD-Focused cluster"))
		threadRows := experiments.Scaling(progs, machine.AMD7713(), experiments.ThreadNodes)
		fmt.Println(experiments.SpeedupString(threadRows, "Figure 8b: CuCC strong scaling, Thread-Focused cluster"))
	}
	if want(9) {
		fmt.Println(experiments.Fig9String(simdRows))
	}
	if want(10) {
		fmt.Println(experiments.Fig10(simdRows))
	}
	if want(11) {
		fmt.Println(experiments.Fig11String(experiments.Fig11(progs)))
	}
	if want(12) {
		rs, avg := experiments.Fig12(progs)
		fmt.Println(experiments.Fig12String(rs, avg))
	}
	if want(13) {
		fmt.Println(experiments.Fig13String(experiments.Fig13(progs)))
	}
	if want(14) {
		// §8.4 has no figure number; -fig 14 selects it.
		fmt.Println(experiments.EnergyString(experiments.Energy(progs)))
	}
	if want(15) {
		// Beyond the paper: weak scaling (-fig 15) and the §8.2 SIMD-off
		// ablation (-fig 15 prints both).
		fmt.Println(experiments.WeakScalingString(experiments.WeakScaling(progs, []int{1, 2, 4, 8, 16, 32})))
		fmt.Println(experiments.SIMDOffString(experiments.SIMDOff(progs)))
	}
	if *fig == 0 {
		fmt.Print(experiments.Table1String())
	}
}

func fig4String(rows []experiments.ScalingRow) string {
	out := "Figure 4: PGAS migration scalability (speedup over 1 node, SIMD-Focused)\n"
	out += fmt.Sprintf("  %-15s", "program")
	for _, n := range rows[0].Nodes {
		out += fmt.Sprintf("  %5dN", n)
	}
	out += "\n"
	for _, r := range rows {
		out += fmt.Sprintf("  %-15s", r.Program)
		for i := range r.Nodes {
			out += fmt.Sprintf("  %5.2fx", r.PGASSec[0]/r.PGASSec[i])
		}
		out += "\n"
	}
	return out
}

func fig7String() string {
	out := "Figure 7: Allgather-distributable coverage\n"
	for _, c := range suites.CountCoverage() {
		out += fmt.Sprintf("  %-12s %2d/%2d distributable (%d overlapping writes, %d indirect)\n",
			c.Suite, c.Distributable, c.Total, c.Overlap, c.Indirect)
	}
	return out
}
