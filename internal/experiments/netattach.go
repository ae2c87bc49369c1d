package experiments

import (
	"fmt"
	"strings"

	"repro/internal/workload"
	"repro/multics"
)

// E13NetAttach measures the end-to-end network attachment path: a storm
// of scripted sessions replayed against the legacy per-device drivers
// (S0: borrowed-process attachment, fixed circular buffers) and against
// the consolidated front-end (S5: dedicated listener process, net_$
// gates, infinite VM-backed buffers with explicit flow control). The
// legacy path silently destroys input under the storm; the consolidated
// path delivers every request, and the run is deterministic — the same
// seed yields the same transcript digest.
func E13NetAttach() Report {
	const conns, steps, seed = 32, 24, 75
	sc := workload.NewScenario("e13-storm", seed).
		Mix(workload.Stormer(steps, steps, 0), 1).
		Sessions(conns)

	run := func(stage multics.Stage) *workload.Report {
		rep, err := workload.RunAt(stage, sc)
		if err != nil {
			panic(err)
		}
		return rep
	}
	legacy := run(multics.StageBaseline)
	cons := run(multics.StageIOConsolidated)
	replay := run(multics.StageIOConsolidated)

	row := func(b *strings.Builder, name string, r *workload.Report) {
		fmt.Fprintf(b, "%-26s %8d %10d %6d %10d %10d %12.2f\n",
			name, r.Sent, r.Stats.Delivered,
			r.Stats.InputLost+r.Stats.ReplyLost,
			r.Stats.AttachP50, r.Stats.AttachP99, r.Throughput)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %8s %10s %6s %10s %10s %12s\n",
		"attachment path", "offered", "delivered", "lost", "attach-p50", "attach-p99", "req/kcycle")
	row(&b, "per-device drivers (S0)", legacy)
	row(&b, "consolidated net_$ (S5)", cons)
	fmt.Fprintf(&b, "storm: %d connections x %d-request bursts, seed %d\n",
		conns, steps, int64(seed))
	fmt.Fprintf(&b, "replay digest match: %v (%s)\n",
		cons.Digest == replay.Digest, cons.Digest[:16])

	pass := legacy.Stats.InputLost > 0 &&
		cons.Stats.InputLost == 0 && cons.Stats.ReplyLost == 0 &&
		cons.Stats.Delivered == cons.Sent &&
		cons.Digest == replay.Digest
	return Report{
		PaperClaim: "I/O consolidation replaces the per-device control packages with a single attachment facility; " +
			"a dedicated process fields arrivals and the infinite buffer never loses input",
		Table: b.String(),
		Measured: fmt.Sprintf("legacy lost %d of %d; consolidated lost 0 of %d and is replay-deterministic",
			legacy.Stats.InputLost, legacy.Sent, cons.Sent),
		Pass: pass,
	}
}
