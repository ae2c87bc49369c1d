package core

import (
	"testing"

	"repro/internal/gate"
	"repro/internal/trace"
)

// statFor finds one gate's stat row by name.
func statFor(t *testing.T, stats []gate.Stat, name string) gate.Stat {
	t.Helper()
	for _, s := range stats {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no stat row for %s", name)
	return gate.Stat{}
}

// TestGateStatsAccounting exercises the declarative tables through real
// ring crossings and checks the spine's per-gate accounting: calls and
// vcycles accumulate, rejections land in the rejected counter, and every
// crossing shows up in the kernel's trace ring.
func TestGateStatsAccounting(t *testing.T) {
	k := newKernel(t, S0Baseline)
	p := userProc(t, k, alice, unc)

	if _, err := p.CallGate("hcs_$get_wdir"); err != nil {
		t.Fatalf("get_wdir: %v", err)
	}
	// Wrong arity: rejected by the central validator, still counted.
	if _, err := p.CallGate("hcs_$terminate_seg"); gate.Classify(err) != trace.ClassBadArgs {
		t.Fatalf("missing argument classified %v (%v)", gate.Classify(err), err)
	}

	svc := k.Services()
	stats := append(svc.UserGates.Stats(), svc.PrivGates.Stats()...)
	wdir := statFor(t, stats, "hcs_$get_wdir")
	if wdir.Calls != 1 || wdir.Errors != 0 || wdir.VCycles <= 0 {
		t.Errorf("get_wdir stats = %+v, want 1 clean call with positive vcycles", wdir)
	}
	term := statFor(t, stats, "hcs_$terminate_seg")
	if term.Calls != 1 || term.Errors != 1 || term.Rejected != 1 {
		t.Errorf("terminate_seg stats = %+v, want 1 call, 1 error, 1 rejected", term)
	}

	// Both crossings are in the trace ring, classified.
	var ok, bad bool
	for _, ev := range k.Services().Trace.Snapshot() {
		if ev.Stage != trace.StageGate {
			continue
		}
		switch {
		case ev.Name == "hcs_$get_wdir" && ev.Outcome == trace.ClassOK && ev.Cost > 0:
			ok = true
		case ev.Name == "hcs_$terminate_seg" && ev.Outcome == trace.ClassBadArgs:
			bad = true
		}
	}
	if !ok || !bad {
		t.Errorf("trace ring missing crossings: ok=%v bad=%v", ok, bad)
	}
}

// TestGateStatsCoverBothRegistries checks both facade registries expose
// their rows through Services(): the user and privileged tables together
// cover every registered gate exactly once.
func TestGateStatsCoverBothRegistries(t *testing.T) {
	k := newKernel(t, S0Baseline)
	svc := k.Services()
	names := make(map[string]bool)
	for _, s := range append(svc.UserGates.Stats(), svc.PrivGates.Stats()...) {
		names[s.Name] = true
	}
	for _, want := range []string{"hcs_$initiate", "phcs_$create_process"} {
		if !names[want] {
			t.Errorf("gate stats missing %s", want)
		}
	}
	if len(names) != svc.UserGates.Count()+svc.PrivGates.Count() {
		t.Errorf("gate stat rows %d != %d user + %d priv",
			len(names), svc.UserGates.Count(), svc.PrivGates.Count())
	}
}
