package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mls"
)

// E20 pins the cost of observing the gate spine: a traced niladic gate
// call allocates no heap object and charges the same virtual cycles as
// an untraced one. The processor reuses a depth-indexed ExecContext
// cache and result arena, the trace ring publishes event values into
// pre-allocated slots, and the gatekeeper never advances the clock.
const e20Calls = 2000

// e20Arm is one arm's measurement over e20Calls calls.
type e20Arm struct {
	allocs uint64 // heap allocations per call
	cycles int64  // virtual cycles for all calls
	events uint64 // events the trace ring accepted
}

// e20Measure times e20Calls calls of call with the trace ring on or off.
// The first call warms the descriptor path and stays outside the count,
// so every counted call is an SDW cache hit. Allocations are counted by
// testing.AllocsPerRun's rule: GOMAXPROCS 1, the Mallocs delta, and an
// integer average, so a stray background allocation rounds away instead
// of failing the sweep.
func e20Measure(svc core.Services, traced bool, call func() error) (e20Arm, error) {
	svc.Trace.SetEnabled(traced)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := call(); err != nil {
		return e20Arm{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, start, written := ms.Mallocs, svc.Clock.Now(), svc.Trace.Written()
	for i := 0; i < e20Calls; i++ {
		if err := call(); err != nil {
			return e20Arm{}, err
		}
	}
	arm := e20Arm{cycles: svc.Clock.Now() - start, events: svc.Trace.Written() - written}
	runtime.ReadMemStats(&ms)
	arm.allocs = (ms.Mallocs - mallocs) / e20Calls
	return arm, nil
}

// E20TracedGateDispatch regenerates the traced-dispatch claim: with the
// trace ring on, every call of hcs_$get_system_info is recorded, makes
// zero heap allocations, and costs the vcycles of a call with the ring
// off.
func E20TracedGateDispatch() Report {
	claim := "every kernel entry passes through a gate, so auditing the gates must not perturb them: " +
		"a traced gate call costs exactly what an untraced one costs"
	fail := func(err error) Report {
		return Report{PaperClaim: claim, Measured: err.Error()}
	}
	k, err := core.New(core.Config{Stage: core.S6Restructured})
	if err != nil {
		return fail(err)
	}
	defer k.Shutdown()
	svc := k.Services()
	p, err := k.CreateProcess("e20", acl.Principal{Person: "Audit", Project: "E20", Tag: "a"},
		mls.NewLabel(mls.Unclassified), machine.UserRing)
	if err != nil {
		return fail(err)
	}
	idx, err := svc.UserGates.EntryIndex("hcs_$get_system_info")
	if err != nil {
		return fail(err)
	}
	call := func() error {
		_, err := p.CPU.Call(core.SegHCS, idx, nil)
		return err
	}
	on, err := e20Measure(svc, true, call)
	if err != nil {
		return fail(err)
	}
	off, err := e20Measure(svc, false, call)
	if err != nil {
		return fail(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %12s %13s %12s\n", "arm", "calls", "allocs/call", "vcycles/call", "gate events")
	for _, row := range []struct {
		name string
		arm  e20Arm
	}{{"traced", on}, {"untraced", off}} {
		fmt.Fprintf(&b, "%-10s %6d %12d %13.1f %12d\n",
			row.name, e20Calls, row.arm.allocs, float64(row.arm.cycles)/e20Calls, row.arm.events)
	}
	return Report{
		PaperClaim: claim,
		Table:      b.String(),
		Measured: fmt.Sprintf("traced gate call: %d allocs/call, %.1f vcycles/call vs %.1f untraced, %d of %d calls traced",
			on.allocs, float64(on.cycles)/e20Calls, float64(off.cycles)/e20Calls, on.events, e20Calls),
		Pass: on.allocs == 0 && on.cycles > 0 && on.cycles == off.cycles &&
			on.events == e20Calls && off.events == 0,
	}
}
