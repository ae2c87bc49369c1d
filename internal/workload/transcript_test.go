package workload_test

import (
	"fmt"
	"testing"

	"repro/internal/workload"
	"repro/multics"
)

// windowScenario is a two-persona mix whose requests carry no
// per-connection state: a window is a login session, so a connection's
// running sum restarts at every window boundary, and only stateless
// replies make a split replay equal to an uninterrupted one. The bursts
// (3 and 4 steps) straddle the split point, so RunWindow must clip them.
func windowScenario(par int) *workload.Scenario {
	return workload.NewScenario("window", 75).
		Mix(workload.Persona{
			Name: "prober", Steps: 12, Burst: 3, Think: 1, Users: 3,
			Levels: []multics.Level{multics.Unclassified, multics.Secret},
			Ops:    workload.OpMix{Echo: 2, Spin: 1, Level: 1},
		}, 2).
		Mix(workload.Persona{
			Name: "spinner", Steps: 9, Burst: 4, Users: 2,
			Ops: workload.OpMix{Echo: 1, Spin: 2},
		}, 1).
		Sessions(12).Parallel(par)
}

// replay boots a fresh system for sc and replays steps [lo, hi) into tr.
func replay(t *testing.T, sc *workload.Scenario, tr *workload.Transcript, lo, hi int) {
	t.Helper()
	sys, err := workload.Boot(multics.StageRestructured, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	if err := workload.RunWindow(sys, sc, tr, lo, hi); err != nil {
		t.Fatalf("RunWindow [%d, %d): %v", lo, hi, err)
	}
}

// TestRunWindowResumesFromSnapshot replays [0, k), snapshots the
// transcript, restores it on a fresh system and replays [k, n): the
// digest must equal the uninterrupted [0, n) replay, at Parallel 1 and 8.
func TestRunWindowResumesFromSnapshot(t *testing.T) {
	ref := windowScenario(1)
	plan, err := ref.Plan()
	if err != nil {
		t.Fatal(err)
	}
	n, k := plan.MaxSteps(), 5
	whole := workload.NewTranscript(len(plan.Scripts))
	replay(t, ref, whole, 0, n)
	want := whole.Digest()
	if sent, received, _ := whole.Counts(); sent == 0 || received != sent {
		t.Fatalf("uninterrupted replay sent %d, received %d", sent, received)
	}

	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			sc := windowScenario(par)
			first := workload.NewTranscript(len(plan.Scripts))
			replay(t, sc, first, 0, k)
			snap, err := first.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := workload.RestoreTranscript(snap)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Digest() != first.Digest() {
				t.Fatal("restored transcript digest differs from the snapshotted one")
			}
			replay(t, sc, resumed, k, n)
			// The digest folds the request counters in too.
			if got := resumed.Digest(); got != want {
				t.Errorf("[0,%d) + restore + [%d,%d) digest %s, uninterrupted %s", k, k, n, got, want)
			}
		})
	}
}

// TestRunWindowRejectsBadWindows checks the window bounds and the
// transcript size are validated before any connection is dialed.
func TestRunWindowRejectsBadWindows(t *testing.T) {
	sc := windowScenario(1)
	plan, err := sc.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := workload.Boot(multics.StageRestructured, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	n, conns := plan.MaxSteps(), len(plan.Scripts)
	cases := []struct {
		name   string
		conns  int
		lo, hi int
	}{
		{"lo-negative", conns, -1, 2},
		{"hi-past-script", conns, 0, n + 1},
		{"lo-after-hi", conns, 4, 3},
		{"transcript-short", conns - 1, 0, n},
		{"transcript-long", conns + 1, 0, n},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := workload.RunWindow(sys, sc, workload.NewTranscript(c.conns), c.lo, c.hi); err == nil {
				t.Errorf("window [%d, %d) with a %d-connection transcript accepted (%d steps, %d sessions)",
					c.lo, c.hi, c.conns, n, conns)
			}
		})
	}
	if sys.Frontend() != nil {
		t.Error("a rejected window served a front-end")
	}
}
