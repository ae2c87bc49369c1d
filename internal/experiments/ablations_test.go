package experiments

import "testing"

func TestA1SecurityCostShape(t *testing.T) {
	rep := A1SecurityCost()
	if !rep.Pass {
		t.Errorf("A1 mismatch: %s\n%s", rep.Measured, rep.Table)
	}
	// The ring split must cost something (it crosses rings per gate call)
	// but not be absurd on 6180-style hardware.
	inK, ringSep, gates := policyDecisionCost(50)
	if ringSep <= inK {
		t.Errorf("ring separation should cost more: %d vs %d", ringSep, inK)
	}
	if float64(ringSep)/float64(inK) > 100 {
		t.Errorf("overhead %dx implausible for hardware rings", ringSep/inK)
	}
	if gates < 1 {
		t.Errorf("gate calls per decision = %.1f, want >= 1", gates)
	}
}

func TestWaterMarkWorkloadEvictionFree(t *testing.T) {
	for _, wm := range []struct{ low, target int }{{1, 1}, {2, 4}, {4, 8}} {
		stats, total, kev := pageFaultWorkloadWith(wm.low, wm.target)
		if stats.FaulterEvictions != 0 {
			t.Errorf("water marks %v: faulter evictions = %d, want 0", wm, stats.FaulterEvictions)
		}
		if stats.Faults != 300 || total <= 0 || kev <= 0 {
			t.Errorf("water marks %v: faults=%d total=%d kev=%d", wm, stats.Faults, total, kev)
		}
	}
}
