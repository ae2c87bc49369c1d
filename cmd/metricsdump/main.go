// Command metricsdump boots a system at a stage, replays a seeded
// workload against it, and prints the unified metrics registry's final
// snapshot — one table covering every instrumented subsystem (machine,
// mem, pagectl, sched, gate, net, workload). It is the quickest way to
// see what the measurement plane records, and a seeded run prints the
// same numbers every time.
//
// Usage:
//
//	metricsdump                     # S6 kernel, default storm, text table
//	metricsdump -stage 5 -seed 42   # different stage / traffic, still deterministic
//	metricsdump -json               # machine-readable snapshot
//	metricsdump -filter gate.       # only names with the prefix
//	metricsdump -filter workload.persona.   # per-persona outcome counters
//	metricsdump -sample 20000       # also run the periodic sampler and report it
//
// The workload engine publishes per-persona counters under
// workload.persona.<name>.{sessions,sent,received,failed}; -filter
// workload.persona. isolates them (the default storm runs a single
// "stormer" persona).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/workload"
	"repro/multics"
)

func main() {
	stage := flag.Int("stage", int(core.S6Restructured), "kernel stage (0..6)")
	n := flag.Int("n", 32, "concurrent connections in the workload")
	steps := flag.Int("steps", 16, "requests per session")
	seed := flag.Int64("seed", 75, "script generator seed")
	asJSON := flag.Bool("json", false, "print the snapshot as JSON instead of a table")
	filter := flag.String("filter", "", "only print metrics whose name has this prefix")
	sample := flag.Int64("sample", 0, "sampling period in virtual cycles (0 disables the sampler)")
	flag.Parse()

	if err := cliutil.FirstError(
		cliutil.InRange("stage", *stage, int(core.S0Baseline), int(core.S6Restructured)),
		cliutil.AtLeast("n", *n, 1, "one connection"),
		cliutil.AtLeast("steps", *steps, 1, "one request per session"),
		cliutil.Rule{Bad: *sample < 0, Msg: fmt.Sprintf("-sample %d: cannot be negative", *sample)},
	); err != nil {
		cliutil.Exit2("metricsdump", err)
	}

	sc := workload.NewScenario("metricsdump", *seed).
		Mix(workload.Stormer(*steps, 0, 0), 1).
		Sessions(*n)
	sys, err := workload.Boot(multics.Stage(*stage), sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricsdump: boot: %v\n", err)
		os.Exit(1)
	}
	defer sys.Shutdown()

	svc := sys.Kernel.Services()
	if *sample > 0 {
		sys.Kernel.EnableMetricsSampler(*sample, nil)
	}

	rep, err := workload.Run(sys, sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricsdump: run: %v\n", err)
		os.Exit(1)
	}

	snap := svc.Metrics.Snapshot().Compact()
	if *filter != "" {
		snap = snap.Filter(func(name string) bool { return strings.HasPrefix(name, *filter) })
	}
	if *asJSON {
		os.Stdout.Write(snap.JSON())
		fmt.Println()
		return
	}
	fmt.Printf("--- stage S%d  seed %d  conns %d  steps %d  cycles %d  throughput %.2f req/kcy\n",
		*stage, *seed, rep.Conns, rep.Steps, rep.Cycles, rep.Throughput)
	fmt.Print(snap.Text())
	if s := sys.Kernel.Sampler(); s != nil {
		s.Flush(svc.Clock.Now())
		fmt.Printf("--- sampler: %d StageMetrics events emitted into the trace ring (every %d cycles)\n",
			s.Samples(), *sample)
	}
}
