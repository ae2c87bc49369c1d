// Command experiments regenerates every quantitative claim of the paper's
// evaluation narrative and prints the measured tables next to the claims.
//
// Usage:
//
//	experiments             # run E1..E21; exit 1 if any does not match
//	experiments -ablations  # also run the A1/A2 ablations
//	experiments -run E5     # run one experiment
//	experiments -list       # list experiment IDs and titles
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "", "run only the experiment with this ID (see -list)")
	list := flag.Bool("list", false, "list experiments and exit")
	ablations := flag.Bool("ablations", false, "also run the A1/A2 ablations in the full sweep")
	flag.Parse()

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	if *run != "" {
		for _, e := range all {
			if e.ID == *run {
				rep := e.Run()
				fmt.Println(rep.Format())
				if !rep.Pass {
					os.Exit(1)
				}
				return
			}
		}
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (-list prints the IDs)\n", *run)
		os.Exit(2)
	}

	ran, failures := 0, 0
	for _, e := range all {
		if e.Ablation && !*ablations {
			continue
		}
		rep := e.Run()
		fmt.Println(rep.Format())
		ran++
		if !rep.Pass {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) did not match the paper's shape\n", failures)
		os.Exit(1)
	}
	fmt.Printf("all %d experiments match the paper's claimed shapes\n", ran)
}
