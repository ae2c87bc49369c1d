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
func windowScenario() *workload.Scenario {
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
		Sessions(12)
}

// replay boots a fresh system for sc, replays steps [lo, hi) into tr,
// and returns the virtual cycles the window took.
func replay(t *testing.T, sc *workload.Scenario, tr *workload.Transcript, lo, hi int) int64 {
	t.Helper()
	sys, err := workload.Boot(multics.StageRestructured, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	clk := sys.Kernel.Services().Clock
	start := clk.Now()
	if err := workload.RunWindow(sys, sc, tr, lo, hi); err != nil {
		t.Fatalf("RunWindow [%d, %d): %v", lo, hi, err)
	}
	return clk.Now() - start
}

// TestRunWindowResumesFromSnapshot replays [0, k), snapshots the
// transcript, restores it on a fresh system and replays [k, n): the
// digest must equal the uninterrupted [0, n) replay. par1 runs this split
// replay once; par8 runs it eight times at once, each on its own systems
// and host goroutine. Replay drives a system from its caller's goroutine
// and systems share no state, so every par8 run must also take par1's
// virtual time in both windows.
func TestRunWindowResumesFromSnapshot(t *testing.T) {
	ref := windowScenario()
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

	// split runs the split replay and returns each window's virtual cycles.
	split := func(t *testing.T) [2]int64 {
		sc := windowScenario()
		first := workload.NewTranscript(len(plan.Scripts))
		c0 := replay(t, sc, first, 0, k)
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
		c1 := replay(t, sc, resumed, k, n)
		// The digest folds the request counters in too.
		if got := resumed.Digest(); got != want {
			t.Errorf("[0,%d) + restore + [%d,%d) digest %s, uninterrupted %s", k, k, n, got, want)
		}
		return [2]int64{c0, c1}
	}
	var base [2]int64
	t.Run("par1", func(t *testing.T) { base = split(t) })
	t.Run("par8", func(t *testing.T) {
		if base == ([2]int64{}) { // -run skipped par1
			base = split(t)
		}
		for i := 0; i < 8; i++ {
			t.Run(fmt.Sprintf("run%d", i), func(t *testing.T) {
				t.Parallel()
				if got := split(t); got != base {
					t.Errorf("window virtual time %v cycles, par1 %v", got, base)
				}
			})
		}
	})
}

// TestRunWindowRejectsBadWindows checks the window bounds and the
// transcript size are validated before any connection is dialed.
func TestRunWindowRejectsBadWindows(t *testing.T) {
	sc := windowScenario()
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
