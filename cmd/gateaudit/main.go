// Command gateaudit prints the security kernel's structural inventory at
// one or all stages of the reduction programme: every gate (with category
// and code units), every non-gate kernel module, and the per-stage totals
// a certifier would audit.
//
// Usage:
//
//	gateaudit             # summary table across all stages
//	gateaudit -stage 2    # full gate and module listing for one stage
//	gateaudit -stats      # replay a seeded workload, print per-gate
//	                      # call/error/vcycle counters (top -top by cost)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/workload"
	"repro/multics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args and prints the requested listing to stdout. It returns
// the exit status: 2 for a usage error, 1 for a failed boot or replay.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("gateaudit", flag.ContinueOnError)
	fl.SetOutput(stderr)
	stage := fl.Int("stage", -1, "stage number 0..6 for a detailed listing; -1 for the summary")
	stats := fl.Bool("stats", false, "boot a kernel, replay a seeded workload, and print per-gate runtime counters")
	top := fl.Int("top", 20, "with -stats: show the top N gates by virtual-cycle cost (0 = all)")
	seed := fl.Int64("seed", 75, "with -stats: workload seed")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *stage >= 0 {
		if err := cliutil.FirstError(
			cliutil.InRange("stage", *stage, 0, int(core.NumStages)-1),
		); err != nil {
			fmt.Fprintf(stderr, "gateaudit: %v\n", err)
			fl.Usage()
			return 2
		}
	}
	var err error
	switch {
	case *stats:
		s := multics.StageRestructured
		if *stage >= 0 {
			s = multics.Stage(*stage)
		}
		err = runtimeStats(stdout, s, *top, *seed)
	case *stage >= 0:
		err = detail(stdout, core.Stage(*stage))
	default:
		err = summary(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "gateaudit: %v\n", err)
		return 1
	}
	return 0
}

// runtimeStats boots a system, replays the seeded workload through the
// network attachment front-end, and prints the gate spine's per-gate
// counters: calls, errors, rejected argument lists, and virtual cycles
// charged, sorted by cost.
func runtimeStats(w io.Writer, s multics.Stage, top int, seed int64) error {
	sc := workload.NewScenario("gateaudit", seed).
		Mix(workload.Stormer(16, 8, 0), 1).
		Sessions(32)
	sys, err := workload.Boot(s, sc)
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	rep, err := workload.Run(sys, sc)
	if err != nil {
		return err
	}

	svc := sys.Kernel.Services()
	all := append(svc.UserGates.Stats(), svc.PrivGates.Stats()...)
	used := make([]gate.Stat, 0, len(all))
	for _, st := range all {
		if st.Calls > 0 {
			used = append(used, st)
		}
	}
	sort.SliceStable(used, func(i, j int) bool { return used[i].VCycles > used[j].VCycles })
	shown := used
	if top > 0 && top < len(shown) {
		shown = shown[:top]
	}

	fmt.Fprintf(w, "gate runtime stats at %v (seed %d: %d conns x %d steps, %d requests processed)\n\n",
		s, seed, rep.Conns, rep.Steps, rep.Stats.Processed)
	fmt.Fprintf(w, "%-28s %-16s %9s %7s %9s %12s %9s\n",
		"gate", "category", "calls", "errors", "rejected", "vcycles", "vcy/call")
	var calls, errs, rejected, vcycles int64
	for _, st := range used {
		calls += st.Calls
		errs += st.Errors
		rejected += st.Rejected
		vcycles += st.VCycles
	}
	for _, st := range shown {
		perCall := float64(st.VCycles) / float64(st.Calls)
		fmt.Fprintf(w, "%-28s %-16s %9d %7d %9d %12d %9.1f\n",
			st.Name, st.Category, st.Calls, st.Errors, st.Rejected, st.VCycles, perCall)
	}
	if len(shown) < len(used) {
		fmt.Fprintf(w, "... %d more gates with calls > 0 (use -top 0 for all)\n", len(used)-len(shown))
	}
	fmt.Fprintf(w, "\ntotals: %d gates exercised, %d calls, %d errors, %d rejected, %d vcycles\n",
		len(used), calls, errs, rejected, vcycles)
	fmt.Fprintf(w, "trace ring: %d events recorded (capacity %d)\n",
		sys.Kernel.Services().Trace.Written(), sys.Kernel.Services().Trace.Cap())
	return nil
}

func summary(w io.Writer) error {
	fmt.Fprintf(w, "%-24s %7s %7s %7s %10s %10s %10s\n",
		"stage", "gates", "user", "priv", "gate-u", "module-u", "total-u")
	for s := core.S0Baseline; s < core.NumStages; s++ {
		k, err := core.New(core.Config{Stage: s})
		if err != nil {
			return err
		}
		inv := k.Inventory()
		fmt.Fprintf(w, "%-24s %7d %7d %7d %10d %10d %10d\n",
			inv.Stage, inv.Gates, inv.UserGates, inv.Gates-inv.UserGates,
			inv.GateUnits, inv.ModuleUnits, inv.TotalUnits)
		k.Shutdown()
	}
	return nil
}

func detail(w io.Writer, s core.Stage) error {
	k, err := core.New(core.Config{Stage: s})
	if err != nil {
		return err
	}
	defer k.Shutdown()
	inv := k.Inventory()
	fmt.Fprintf(w, "kernel inventory for %v\n\n", inv.Stage)

	fmt.Fprintln(w, "user-available gates (hcs_):")
	printGates(w, k.Services().UserGates)
	fmt.Fprintln(w, "\nprivileged gates (phcs_, rings <= 2 only):")
	printGates(w, k.Services().PrivGates)

	fmt.Fprintln(w, "\nnon-gate kernel modules:")
	for _, m := range inv.Modules {
		fmt.Fprintf(w, "  %-48s %6d units\n", m.Name, m.Units)
	}

	fmt.Fprintln(w, "\nby category:")
	for _, c := range inv.Categories {
		fmt.Fprintf(w, "  %-20s %4d gates %6d units\n", c.Category, c.Gates, c.Units)
	}
	fmt.Fprintf(w, "\ntotals: %d gates (%d user-available), %d code units (%d gate + %d module)\n",
		inv.Gates, inv.UserGates, inv.TotalUnits, inv.GateUnits, inv.ModuleUnits)
	fmt.Fprintf(w, "address-space management: %d units\n", inv.AddressSpaceUnits)
	fmt.Fprintf(w, "boot pattern: %s (%d privileged steps)\n", k.BootReport, k.PrivilegedBootSteps)
	return nil
}

func printGates(w io.Writer, r *gate.Registry) {
	for _, d := range r.Defs() {
		avail := " "
		if d.UserAvailable {
			avail = "u"
		}
		fmt.Fprintf(w, "  %s %-28s %-16s %3d units\n", avail, d.Name, d.Category, d.CodeUnits)
	}
}
