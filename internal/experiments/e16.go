package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/workload"
	"repro/multics"
)

// e16Run replays the standard seeded storm at the given parallelism
// with the metrics plane on or off, optionally sampling, and returns
// the report plus the registry's exported aggregate.
type e16Result struct {
	rep     *workload.Report
	export  []byte // filtered snapshot JSON (deterministic subset)
	lines   string // filtered snapshot text, for the table
	samples int64  // StageMetrics events the sampler emitted
}

func e16Run(parallelism int, enabled bool, sampleEvery int64) (*e16Result, error) {
	sc := workload.NewScenario("e16-storm", 75).
		Mix(workload.Stormer(12, 12, 0), 1).
		Sessions(32).
		Parallel(parallelism)
	sys, err := workload.Boot(multics.StageRestructured, sc)
	if err != nil {
		return nil, err
	}
	defer sys.Shutdown()
	svc := sys.Kernel.Services()
	svc.Metrics.SetEnabled(enabled)
	if sampleEvery > 0 {
		sys.Kernel.EnableMetricsSampler(sampleEvery, nil)
	}
	rep, err := workload.Run(sys, sc)
	if err != nil {
		return nil, err
	}
	res := &e16Result{rep: rep}
	if s := sys.Kernel.Sampler(); s != nil {
		s.Flush(svc.Clock.Now())
		res.samples = s.Samples()
	}
	// The exported aggregate keeps the counters keyed off completed work
	// items — sessions and messages: the whole net.* attachment plane
	// (including the attach-latency histogram), the workload.* outcomes,
	// and the once-per-session gate rows. Those sums are commutative over
	// the partition and must be byte-identical at any parallelism.
	// Excluded are the polling-cadence counters: scheduler dispatches,
	// empty read-gate polls, and the machine/mem activity those extra
	// polls cause — how often workers find a drained queue legitimately
	// varies with how the real goroutines overlap.
	snap := svc.Metrics.Snapshot().Compact().Filter(func(name string) bool {
		return strings.HasPrefix(name, "net.") ||
			strings.HasPrefix(name, "workload.") ||
			strings.HasPrefix(name, "gate.net_$attach") ||
			strings.HasPrefix(name, "gate.net_$detach") ||
			strings.HasPrefix(name, "gate.phcs_$create_process")
	})
	snap.At = 0 // the wall-clock stamp is not part of the aggregate
	res.export = snap.JSON()
	res.lines = snap.Text()
	return res, nil
}

// E16MetricsPlane measures the unified metrics plane itself: recording
// into the registry must not perturb the simulation (zero virtual-cycle
// overhead), and the exported aggregate must be byte-identical however
// many real worker goroutines replayed the storm.
func E16MetricsPlane() Report {
	on1, err := e16Run(1, true, 0)
	if err != nil {
		panic(err)
	}
	on8, err := e16Run(8, true, 0)
	if err != nil {
		panic(err)
	}
	off, err := e16Run(1, false, 0)
	if err != nil {
		panic(err)
	}
	sampled, err := e16Run(1, true, 2000)
	if err != nil {
		panic(err)
	}

	overhead := float64(on1.rep.Cycles-off.rep.Cycles) / float64(off.rep.Cycles) * 100
	invariant := bytes.Equal(on1.export, on8.export)
	digestsEqual := on1.rep.Digest == on8.rep.Digest

	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %12s %12s\n", "storm (S6, 32 conns x 12 steps, seed 75)", "vcycles", "samples")
	fmt.Fprintf(&b, "%-44s %12d %12s\n", "metrics off", off.rep.Cycles, "-")
	fmt.Fprintf(&b, "%-44s %12d %12s\n", "metrics on, parallelism 1", on1.rep.Cycles, "-")
	fmt.Fprintf(&b, "%-44s %12d %12s\n", "metrics on, parallelism 8", on8.rep.Cycles, "-")
	fmt.Fprintf(&b, "%-44s %12d %12d\n", "metrics on + sampler every 2000 cy", sampled.rep.Cycles, sampled.samples)
	fmt.Fprintf(&b, "recording overhead: %+.2f%% virtual cycles (must be <= 1%%)\n", overhead)
	fmt.Fprintf(&b, "work-keyed aggregate parallelism 1 vs 8: byte-identical=%v (%d bytes; polling-cadence counters excluded)\n",
		invariant, len(on1.export))
	fmt.Fprintf(&b, "replay digest parallelism 1 vs 8: equal=%v (%s)\n", digestsEqual, on1.rep.Digest[:16])
	b.WriteString("registry aggregate (parallelism 8):\n")
	b.WriteString(indent(on8.lines))

	pass := overhead <= 1.0 && overhead >= -1.0 && invariant && digestsEqual &&
		sampled.samples > 0 && len(on1.export) > 2
	return Report{
		PaperClaim: "auditing a kernel requires observing it without perturbing it: the performance and " +
			"accounting counters must not change what the system does, only report it",
		Table: b.String(),
		Measured: fmt.Sprintf("%+.2f%% cycle overhead with every counter live; export byte-identical at "+
			"parallelism 1 vs 8; %d sampler events on the trace spine", overhead, sampled.samples),
		Pass: pass,
	}
}
