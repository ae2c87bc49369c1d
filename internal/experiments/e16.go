package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/workload"
	"repro/multics"
)

// e16Run replays the standard seeded storm with the metrics plane on or
// off, optionally sampling, and returns the report plus the registry's
// exported aggregate.
type e16Result struct {
	rep     *workload.Report
	export  []byte // compact snapshot JSON
	lines   string // compact snapshot text, for the table
	samples int64  // StageMetrics events the sampler emitted
}

func e16Run(enabled bool, sampleEvery int64) (*e16Result, error) {
	sc := workload.NewScenario("e16-storm", 75).
		Mix(workload.Stormer(12, 12, 0), 1).
		Sessions(32)
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
	// The whole registry: one goroutine drives the replay, so every
	// counter — scheduler dispatches and empty polls included — is a
	// function of the seed.
	snap := svc.Metrics.Snapshot().Compact()
	res.export = snap.JSON()
	res.lines = snap.Text()
	return res, nil
}

// E16MetricsPlane measures the unified metrics plane itself: recording
// into the registry must not perturb the simulation (zero virtual-cycle
// overhead, the same replay digest with metrics off, on and sampled),
// and the sampler must not change what the registry aggregates.
func E16MetricsPlane() Report {
	on, err := e16Run(true, 0)
	if err != nil {
		panic(err)
	}
	off, err := e16Run(false, 0)
	if err != nil {
		panic(err)
	}
	sampled, err := e16Run(true, 2000)
	if err != nil {
		panic(err)
	}

	overhead := float64(on.rep.Cycles-off.rep.Cycles) / float64(off.rep.Cycles) * 100
	invariant := bytes.Equal(on.export, sampled.export)
	digestsEqual := on.rep.Digest == off.rep.Digest && on.rep.Digest == sampled.rep.Digest

	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %12s %12s\n", "storm (S6, 32 conns x 12 steps, seed 75)", "vcycles", "samples")
	fmt.Fprintf(&b, "%-44s %12d %12s\n", "metrics off", off.rep.Cycles, "-")
	fmt.Fprintf(&b, "%-44s %12d %12s\n", "metrics on", on.rep.Cycles, "-")
	fmt.Fprintf(&b, "%-44s %12d %12d\n", "metrics on + sampler every 2000 cy", sampled.rep.Cycles, sampled.samples)
	fmt.Fprintf(&b, "recording overhead: %+.2f%% virtual cycles (must be <= 1%%)\n", overhead)
	fmt.Fprintf(&b, "whole aggregate sampler on vs off: byte-identical=%v (%d bytes)\n",
		invariant, len(on.export))
	fmt.Fprintf(&b, "replay digest metrics off, on and sampled: equal=%v (%s)\n", digestsEqual, on.rep.Digest[:16])
	b.WriteString("registry aggregate:\n")
	b.WriteString(indent(on.lines))

	pass := overhead <= 1.0 && overhead >= -1.0 && invariant && digestsEqual &&
		sampled.samples > 0 && len(on.export) > 2
	return Report{
		PaperClaim: "auditing a kernel requires observing it without perturbing it: the performance and " +
			"accounting counters must not change what the system does, only report it",
		Table: b.String(),
		Measured: fmt.Sprintf("%+.2f%% cycle overhead with every counter live; export byte-identical with "+
			"the sampler on and off; %d sampler events on the trace spine", overhead, sampled.samples),
		Pass: pass,
	}
}
