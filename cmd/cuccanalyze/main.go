// Command cuccanalyze runs the Allgather-distributable analysis.
//
// Usage:
//
//	cuccanalyze kernels.cu     # analyze kernels in a mini-CUDA source file
//	cuccanalyze -              # read source from stdin
//	cuccanalyze -coverage      # classify every Figure 7 coverage kernel
//
// The Figure 7 table, the per-suite tally of those classifications, is
// cuccbench -fig 7.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cucc/internal/analysis"
	"cucc/internal/core"
	"cucc/internal/lang"
	"cucc/internal/suites"
)

func main() {
	coverage := flag.Bool("coverage", false, "classify every kernel of the built-in Figure 7 coverage suites")
	explain := flag.Bool("explain", false, "print the generated CPU host module (Figure 6 template) per kernel")
	flag.Parse()

	if *coverage {
		for _, ck := range suites.CoverageSuite() {
			fmt.Printf("[%-11s] %s\n", ck.Suite, ck.Classify().Summary())
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cuccanalyze <file.cu | -> | cuccanalyze -coverage")
		os.Exit(2)
	}
	var src []byte
	var err error
	if flag.Arg(0) == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mod, err := lang.Parse(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "parse error: %v\n", err)
		os.Exit(1)
	}
	if *explain {
		prog, err := core.Compile(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, k := range mod.Kernels {
			report, err := prog.ExplainKernel(k.Name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(report)
		}
		return
	}
	for _, k := range mod.Kernels {
		md := analysis.Analyze(k)
		fmt.Println(md.Summary())
		if md.GIDOnly {
			fmt.Println("  note: GID-only kernel; eligible for block redistribution (-split)")
		}
	}
}
