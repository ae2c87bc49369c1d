// Command perfbench is the repository's benchmark. It drives three
// closed-loop workloads through the system's public API from a single
// goroutine and reports end-to-end metrics in two clocks: host time
// (what the simulator costs) and virtual cycles (what the modelled
// design costs).
//
//	office  a 2-kernel fleet serving 64 persona sessions over netattach
//	tree    one kernel, 4 readers over a tree of thousands of segments
//	thrash  one kernel paging 4 processes over a journaled blockstore
//
// Every run does a fixed amount of work per repetition, set up afresh
// each time, and repeats until --seconds have been spent; host metrics
// are medians over the repetitions. With --trace 1 the run alternates
// untraced and traced repetitions: the traced ones time the benchmark's
// own calls into each layer and read the kernels' metrics registries,
// and the two kinds must agree on every virtual metric and digest.
//
// Usage:
//
//	bash perfbench/run.sh --workload tree --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload thrash --trace 1 --layers-out a.json
//	bash perfbench/run.sh --compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is nonzero
// when any outcome disagrees with the oracle.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: office, tree or thrash")
	seed := fl.Int64("seed", defaultSeed, fmt.Sprintf("input seed (keep seed %d held out for claim checks)", heldOutSeed))
	seconds := fl.Float64("seconds", 10, "measuring time; repetitions of the fixed work continue until it is spent")
	traceFlag := fl.Int("trace", 0, "1 reports per-layer metrics from traced repetitions; 0 reports end-to-end metrics")
	layersOut := fl.String("layers-out", "", "with --trace 1, also write the per-layer table as JSON to this file")
	compare := fl.Bool("compare", false, "compare two per-layer tables given as arguments and flag layers whose host time and vcycles move apart")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare needs two per-layer table files")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want office, tree or thrash)\n", *name)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}

	res, err := measure(w, w.ops, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.print(stdout)
	if *layersOut != "" && res.layers != nil {
		if err := writeLayers(*layersOut, res.layers); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the machine-readable last line of a run.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
