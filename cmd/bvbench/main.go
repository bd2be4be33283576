// Command bvbench regenerates the paper's tables and figures.
//
// Usage:
//
//	bvbench -list
//	bvbench -exp fig7-1
//	bvbench -exp all -scale 2
//	bvbench -debug-addr localhost:6060 [-hold 10m]
//
// Each experiment prints the rows/series of the corresponding paper
// artifact together with a "shape check" describing what to look for; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded runs.
// -debug-addr serves expvar (with the live tree metrics under the "bvtree"
// key) and net/http/pprof over a demo workload. Timings of the system
// around the tree are the business of benchmark/ (see BENCHMARK.json) and
// of the `go test -bench` benchmarks, not of this command.
package main

import (
	"flag"
	"fmt"
	"os"

	"bvtree/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment ID to run, or \"all\"")
		scale     = flag.Int("scale", 1, "workload scale multiplier")
		list      = flag.Bool("list", false, "list experiments")
		debugAddr = flag.String("debug-addr", "", "serve expvar+pprof on this address over a demo workload")
		hold      = flag.Duration("hold", 0, "how long -debug-addr serves (0 = until killed)")
	)
	flag.Parse()

	if *debugAddr != "" {
		if err := runDebugServer(*debugAddr, *hold); err != nil {
			fmt.Fprintf(os.Stderr, "bvbench: debug server: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	if *exp == "all" {
		for _, e := range bench.All() {
			if err := bench.Run(e.ID, os.Stdout, *scale); err != nil {
				fmt.Fprintf(os.Stderr, "bvbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	}
	if err := bench.Run(*exp, os.Stdout, *scale); err != nil {
		fmt.Fprintf(os.Stderr, "bvbench: %v\n", err)
		os.Exit(1)
	}
}
