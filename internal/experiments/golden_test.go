package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from a fresh RunAll")

const goldenPath = "testdata/golden.txt"

// checkGolden pins the formatted text of every RunAll report in reps: each
// digest, count and virtual-cycle figure. A change that keeps every
// report's shape but moves one number fails here, naming the experiment.
// Rewrite the file with: go test ./internal/experiments -run RunAll/Golden -update
func checkGolden(t *testing.T, reps []Report) {
	var b strings.Builder
	for _, rep := range reps {
		b.WriteString(rep.Format())
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gotBy, order := splitReports(got)
	wantBy, wantOrder := splitReports(want)
	for _, id := range wantOrder {
		if _, ok := gotBy[id]; !ok {
			order = append(order, id)
		}
	}
	for _, id := range order {
		g, w := gotBy[id], wantBy[id]
		if g == w {
			continue
		}
		gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var gi, wi string
			if i < len(gl) {
				gi = gl[i]
			}
			if i < len(wl) {
				wi = wl[i]
			}
			if gi != wi {
				t.Errorf("%s differs from %s at its line %d:\n got: %q\nwant: %q", id, goldenPath, i+1, gi, wi)
				break
			}
		}
	}
}

// splitReports cuts concatenated Format text into one block per report,
// keyed by ID, and returns the IDs in order of appearance.
func splitReports(s string) (map[string]string, []string) {
	by := map[string]string{}
	var order []string
	id := ""
	for _, line := range strings.SplitAfter(s, "\n") {
		if rest, ok := strings.CutPrefix(line, "=== "); ok {
			id, _, _ = strings.Cut(rest, ":")
			order = append(order, id)
		}
		by[id] += line
	}
	return by, order
}
