package experiments

import (
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/workload"
	"repro/multics"
)

// E21 is the persona workload and adversarial-fuzzing experiment. It
// regenerates two claims at once:
//
//   - The composed persona engine is deterministic in the strong sense:
//     a mixed population (interactive editors, batch compilers, a
//     daemon, MLS tenant pairs) produces byte-identical per-session
//     transcript digests under open- and closed-loop arrival (whose
//     schedules differ), and across a 1-kernel and a 4-kernel fleet
//     with every session live-migrating after every burst — because
//     every persona decision is a pure seeded hash.
//
//   - The kernel's access-control invariants hold under adversarial
//     volume: a seeded fuzzer fires >= 100k mutated gate calls,
//     cross-level initiations, label flips and raw machine probes at
//     the S6 kernel while the fault plane injects I/O errors and lost
//     interrupts at 1%, and not one invariant breaks; the storm itself
//     is deterministic (same seed, same fuzz digest).
const (
	e21Seed     = 75
	e21Sessions = 16
	e21FuzzSeed = 7521
	e21Calls    = 100_000
)

func e21Mixed() *workload.Scenario {
	return workload.NewScenario("e21-office", e21Seed).
		Mix(workload.InteractiveEditor(), 3).
		Mix(workload.BatchCompiler(), 2).
		Mix(workload.Daemon(), 1).
		Mix(workload.TenantPair(), 2).
		Sessions(e21Sessions)
}

func e21Run(open bool) (*workload.Report, error) {
	sc := e21Mixed()
	if open {
		sc.OpenLoop(3)
	}
	return workload.RunAt(multics.StageRestructured, sc)
}

func e21Fleet(kernels, migrateEvery int) (*fleet.RunReport, error) {
	f, err := fleet.New(fleet.Config{
		Kernels: kernels, Workers: 8, MaxConns: e21Sessions, MemFrames: 4096,
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fleet.Run(f, fleet.RunConfig{Scenario: e21Mixed(), MigrateEvery: migrateEvery})
}

// E21PersonaWorkloads runs the mixed-persona determinism matrix and the
// adversarial fuzzing storm.
func E21PersonaWorkloads() Report {
	fail := func(msg string) Report {
		return Report{
			PaperClaim: "auditing requires repeatable attacks and repeatable load",
			Measured:   msg,
			Pass:       false,
		}
	}

	closed, err := e21Run(false)
	if err != nil {
		return fail(fmt.Sprintf("closed-loop: %v", err))
	}
	open, err := e21Run(true)
	if err != nil {
		return fail(fmt.Sprintf("open-loop: %v", err))
	}
	fleet1, err := e21Fleet(1, 0)
	if err != nil {
		return fail(fmt.Sprintf("1-kernel fleet: %v", err))
	}
	fleet4, err := e21Fleet(4, 1)
	if err != nil {
		return fail(fmt.Sprintf("4-kernel migrating fleet: %v", err))
	}

	fuzzCfg := audit.FuzzConfig{
		Stage: core.S6Restructured, Seed: e21FuzzSeed, Calls: e21Calls, FaultRate: 0.01,
	}
	fuzzA, err := audit.Fuzz(fuzzCfg)
	if err != nil {
		return fail(fmt.Sprintf("fuzz storm: %v", err))
	}
	fuzzB, err := audit.Fuzz(fuzzCfg)
	if err != nil {
		return fail(fmt.Sprintf("fuzz replay: %v", err))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %10s %10s  %s\n",
		"persona", "sessions", "sent", "received", "attach-p50", "attach-p99", "digest")
	for _, p := range closed.Personas {
		fmt.Fprintf(&b, "%-10s %8d %8d %8d %10d %10d  %s\n",
			p.Name, p.Sessions, p.Sent, p.Received, p.AttachP50, p.AttachP99, p.Digest[:16])
	}
	arrivalInvariant := open.SessionDigest == closed.SessionDigest &&
		open.ScheduleDigest != closed.ScheduleDigest
	fleetInvariant := fleet1.SessionDigest == closed.SessionDigest &&
		fleet4.SessionDigest == closed.SessionDigest
	clean := closed.Throttled == 0 && closed.Failed == 0 &&
		open.Throttled == 0 && open.Failed == 0 &&
		fleet1.Throttled == 0 && fleet1.Failed == 0 &&
		fleet4.Throttled == 0 && fleet4.Failed == 0 &&
		fleet4.MigrationFailures == 0 && fleet4.Migrations > 0

	fmt.Fprintf(&b, "open-loop session digest == closed-loop, schedules differ: %v (%s; schedules %s, %s)\n",
		arrivalInvariant, closed.SessionDigest[:16], closed.ScheduleDigest[:16], open.ScheduleDigest[:16])
	fmt.Fprintf(&b, "fleet x1 == fleet x4+migration == single-kernel: %v (%d migrations)\n",
		fleetInvariant, fleet4.Migrations)
	fmt.Fprintf(&b, "fuzz: %d calls at 1%% faults: %d rejected, %d denied, %d malfunctions, %d violations\n",
		fuzzA.Calls, fuzzA.Rejected, fuzzA.Denied, fuzzA.Malfunctions, len(fuzzA.Violations))
	fmt.Fprintf(&b, "fuzz replay digest match: %v (%s)\n", fuzzA.Digest == fuzzB.Digest, fuzzA.Digest[:16])
	for _, v := range fuzzA.Violations {
		fmt.Fprintf(&b, "fuzz VIOLATION: %s\n", v)
	}

	fuzzClean := fuzzA.Calls >= e21Calls && len(fuzzA.Violations) == 0 &&
		fuzzA.Malfunctions == 0 && fuzzA.Digest == fuzzB.Digest &&
		fuzzA.Rejected > 0 && fuzzA.Denied > 0

	pass := arrivalInvariant && fleetInvariant && clean &&
		fuzzClean && len(closed.Personas) == 4
	return Report{
		PaperClaim: "the auditing and certification argument rests on repeatability: the review activity " +
			"needs the same attack to produce the same outcome, and the kernel must enforce its access " +
			"rules under any load the user community — cooperative or hostile — can compose",
		Table: b.String(),
		Measured: fmt.Sprintf("persona digests invariant across open/closed arrival and 1/4 kernels "+
			"with migration; %d fuzzed calls under 1%% faults with %d access-control violations",
			fuzzA.Calls, len(fuzzA.Violations)),
		Pass: pass,
	}
}
