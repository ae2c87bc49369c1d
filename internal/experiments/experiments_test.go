package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/iosys"
)

func newCircular(n int) (*iosys.CircularBuffer, error) { return iosys.NewCircularBuffer(n) }

// TestRunAll is the reproduction's acceptance test. It runs RunAll once
// and checks the reports three ways: every regenerated result lands in
// the band the paper claims, RunAll returns what the registry says it
// runs, and the formatted text matches testdata/golden.txt.
func TestRunAll(t *testing.T) {
	reps := RunAll()
	t.Run("MatchPaperShapes", func(t *testing.T) {
		for _, rep := range reps {
			if !rep.Pass {
				t.Errorf("%s (%s): MISMATCH — measured %s\n%s", rep.ID, rep.Title, rep.Measured, rep.Table)
			}
			if rep.ID == "" || rep.Title == "" || rep.PaperClaim == "" || rep.Measured == "" {
				t.Errorf("%s: incomplete report %+v", rep.ID, rep)
			}
		}
	})
	t.Run("ExperimentCount", func(t *testing.T) { checkExperimentCount(t, reps) })
	t.Run("Golden", func(t *testing.T) { checkGolden(t, reps) })
}

func TestReportFormat(t *testing.T) {
	rep := registry[3].Run() // E4
	out := rep.Format()
	for _, want := range []string{"E4", "MATCH", "paper:", "measured:", "645", "6180"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}
	rep.Pass = false
	if !strings.Contains(rep.Format(), "MISMATCH") {
		t.Error("failed report should render MISMATCH")
	}
}

// checkExperimentCount checks the registry cmd/experiments and RunAll
// share: E1..E21 in order then the two ablations, unique IDs with titles,
// and reps (RunAll's output) holding all 23 in registry order.
func checkExperimentCount(t *testing.T, reps []Report) {
	exps := All()
	if len(exps) != 23 {
		t.Fatalf("registered experiments = %d, want 23", len(exps))
	}
	for i, e := range exps {
		want := fmt.Sprintf("E%d", i+1)
		if i >= 21 {
			want = fmt.Sprintf("A%d", i-20)
		}
		if e.ID != want || e.Title == "" || e.run == nil {
			t.Errorf("registry[%d] = %s %q, want %s with a title and a run function", i, e.ID, e.Title, want)
		}
	}
	if len(reps) != len(exps) {
		t.Fatalf("RunAll = %d reports, want %d", len(reps), len(exps))
	}
	for i, r := range reps {
		if r.ID != exps[i].ID {
			t.Errorf("RunAll[%d] = %s, want %s", i, r.ID, exps[i].ID)
		}
	}
}

func TestPageFaultWorkloadDeterministic(t *testing.T) {
	a, atime, _ := PageFaultWorkload(true, 32, 100)
	b, btime, _ := PageFaultWorkload(true, 32, 100)
	if a != b || atime != btime {
		t.Errorf("workload not deterministic: %+v/%d vs %+v/%d", a, atime, b, btime)
	}
}

func TestBufferWorkloadAccounting(t *testing.T) {
	// Offered = delivered + lost for the circular buffer.
	circ, err := newCircular(8)
	if err != nil {
		t.Fatal(err)
	}
	const offered = 500
	delivered, lost := BufferWorkload(circ, offered, 16, 4)
	if delivered+lost != offered {
		t.Errorf("accounting: %d delivered + %d lost != %d offered", delivered, lost, offered)
	}
}
