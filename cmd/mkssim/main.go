// Command mkssim boots a simulated Multics system at a chosen kernel stage
// and runs a scripted multi-user scenario that exercises the whole public
// surface: login, hierarchy operations, ACL sharing, MLS labels, dynamic
// linking, IPC, and the penetration suite. It is the "does the whole thing
// actually run" demonstration tool.
//
// Usage:
//
//	mkssim                # run the scenario on the restructured kernel (S6)
//	mkssim -stage 0       # run it on the baseline supervisor
//	mkssim -pentest       # also run the penetration suite and print it
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/audit"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/linker"
	"repro/internal/machine"
	"repro/multics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args and runs the scenario, writing its report to stdout. It
// returns the exit status: 2 for a usage error, 1 for a failed scenario.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("mkssim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	stage := fl.Int("stage", int(multics.StageRestructured), "kernel stage 0..6")
	pentest := fl.Bool("pentest", false, "run the penetration suite after the scenario")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := cliutil.FirstError(
		cliutil.InRange("stage", *stage, 0, int(core.NumStages)-1),
	); err != nil {
		fmt.Fprintf(stderr, "mkssim: %v\n", err)
		fl.Usage()
		return 2
	}
	if err := scenario(stdout, core.Stage(*stage), *pentest); err != nil {
		fmt.Fprintf(stderr, "mkssim: %v\n", err)
		return 1
	}
	return 0
}

// scenario boots a system at stage and drives the scripted multi-user
// session through its public surface, reporting each step to w.
func scenario(w io.Writer, stage core.Stage, pentest bool) error {
	fmt.Fprintf(w, "booting Multics at %v ...\n", stage)
	sys, err := multics.New(stage)
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	k := sys.Kernel
	fmt.Fprintf(w, "  boot pattern: %s (%d privileged steps), machine: %s\n",
		k.BootReport, k.PrivilegedBootSteps, k.Services().Cost.Name)
	inv := k.Inventory()
	fmt.Fprintf(w, "  kernel: %d gates (%d user-available), %d code units\n\n",
		inv.Gates, inv.UserGates, inv.TotalUnits)

	// Register and log in two users.
	if err := sys.AddUser("Schroeder", "CSR", "multics75", multics.Secret); err != nil {
		return err
	}
	if err := sys.AddUser("Janson", "CSR", "linker74", multics.Secret); err != nil {
		return err
	}
	mike, err := sys.Login("Schroeder", "CSR", "multics75", multics.Unclassified)
	if err != nil {
		return err
	}
	phil, err := sys.Login("Janson", "CSR", "linker74", multics.Unclassified)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "logged in: %s and %s\n", mike.Principal(), phil.Principal())

	// Build a little hierarchy.
	for _, dir := range []string{">udd", ">udd>CSR", ">lib"} {
		if err := mike.MakeDir(dir); err != nil {
			return fmt.Errorf("creating %s: %w", dir, err)
		}
	}
	if err := mike.CreateSegment(">udd>CSR>draft", 256); err != nil {
		return err
	}
	seg, err := mike.Open(">udd>CSR>draft", "draft")
	if err != nil {
		return err
	}
	for i := 0; i < 32; i++ {
		if err := seg.WriteWord(i, uint64(i*i)); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "created >udd>CSR>draft and wrote 32 words through the SDW")

	// Sharing: Janson cannot read it until Schroeder grants access.
	if err := mike.SetACL(">udd", "Janson.*.*", "s"); err != nil {
		return err
	}
	if err := mike.SetACL(">udd>CSR", "Janson.*.*", "s"); err != nil {
		return err
	}
	if _, err := phil.Open(">udd>CSR>draft", ""); err == nil {
		return fmt.Errorf("protection failure: access before grant")
	}
	fmt.Fprintln(w, "Janson denied before grant (ACL enforced)")
	if err := mike.SetACL(">udd>CSR>draft", "Janson.*.*", "r"); err != nil {
		return err
	}
	shared, err := phil.Open(">udd>CSR>draft", "")
	if err != nil {
		return err
	}
	v, err := shared.ReadWord(5)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "after grant Janson reads word 5 = %d; write attempt: ", v)
	if werr := shared.WriteWord(0, 1); werr != nil {
		fmt.Fprintln(w, "denied (r-only SDW)")
	} else {
		return fmt.Errorf("protection failure: write through r-only grant")
	}

	// Dynamic linking.
	sqrtProc := &machine.Procedure{Name: "math_utils", Entries: []machine.EntryFunc{
		func(_ *machine.ExecContext, a []uint64) ([]uint64, error) {
			x := a[0]
			var r uint64
			for r*r <= x {
				r++
			}
			return []uint64{r - 1}, nil
		},
	}}
	if err := sys.InstallProgram(mike, ">lib", "math_utils",
		sqrtProc, []linker.Symbol{{Name: "isqrt", Entry: 0}}); err != nil {
		return err
	}
	if err := mike.SetSearchRules(">lib"); err != nil {
		return err
	}
	out, err := mike.Call("math_utils", "isqrt", 1764)
	if err != nil {
		return err
	}
	where := "user ring"
	if stage < multics.StageLinkerRemoved {
		where = "ring 0 (kernel linker)"
	}
	fmt.Fprintf(w, "dynamic link math_utils$isqrt snapped in the %s; isqrt(1764) = %d\n", where, out[0])

	// A secret session demonstrates the mandatory rules.
	spy, err := sys.Login("Schroeder", "CSR", "multics75", multics.Secret)
	if err != nil {
		return err
	}
	if err := mike.SetACL(">udd>CSR>draft", "*.*.*", "rw"); err != nil {
		return err
	}
	sseg, err := spy.Open(">udd>CSR>draft", "")
	if err != nil {
		return err
	}
	if _, err := sseg.ReadWord(0); err != nil {
		return fmt.Errorf("secret session read down failed: %v", err)
	}
	if err := sseg.WriteWord(0, 7); err == nil {
		return fmt.Errorf("protection failure: *-property write-down permitted")
	}
	fmt.Fprintln(w, "secret session: read down allowed, write down denied (*-property)")

	fmt.Fprintf(w, "\nvirtual time elapsed: %d cycles; page faults handled: %d\n",
		k.Services().Clock.Now(), k.Services().Pager.Stats().Faults)

	if pentest {
		fmt.Fprintln(w, "\npenetration suite:")
		suite, err := audit.NewSuite(k)
		if err != nil {
			return err
		}
		results := suite.Run()
		fmt.Fprint(w, audit.Format(results))
		sum := audit.Summary(results)
		fmt.Fprintf(w, "summary: %d blocked, %d contained, %d supervisor compromises, %d authorized leaks\n",
			sum[audit.Blocked], sum[audit.Contained], sum[audit.SupervisorCompromise], sum[audit.AuthorizedLeak])
	}
	fmt.Fprintln(w, "\nscenario complete")
	return nil
}
