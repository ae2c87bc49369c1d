package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from fresh listings")

const goldenPath = "testdata/golden.txt"

// goldenListings are the invocations testdata/golden.txt pins: the full
// gate and module listing of every stage, and the per-gate runtime
// counters of the seeded workload.
var goldenListings = [][]string{
	{"-stage", "0"}, {"-stage", "1"}, {"-stage", "2"}, {"-stage", "3"},
	{"-stage", "4"}, {"-stage", "5"}, {"-stage", "6"},
	{"-stats", "-seed", "75"},
}

// TestListingsMatchGolden pins the gate surface: every gate's name,
// registration order, category and code units at each stage, and each
// exercised gate's calls, errors and vcycles under the seeded workload.
// A change that moves one of them fails here, naming the listing.
// Rewrite the file with: go test ./cmd/gateaudit -run Golden -update
func TestListingsMatchGolden(t *testing.T) {
	var b strings.Builder
	got := map[string]string{}
	for _, args := range goldenListings {
		name := strings.Join(args, " ")
		code, out, errOut := gateaudit(t, args...)
		if code != 0 {
			t.Fatalf("%q exited %d: %s", name, code, errOut)
		}
		got[name] = out
		b.WriteString("=== gateaudit " + name + "\n" + out)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	want := splitListings(string(raw))
	for _, args := range goldenListings {
		name := strings.Join(args, " ")
		w, ok := want[name]
		if !ok {
			t.Errorf("%s has no listing for %q", goldenPath, name)
			continue
		}
		gl, wl := strings.Split(got[name], "\n"), strings.Split(w, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var gi, wi string
			if i < len(gl) {
				gi = gl[i]
			}
			if i < len(wl) {
				wi = wl[i]
			}
			if gi != wi {
				t.Errorf("%q differs from %s at its line %d:\n got: %q\nwant: %q", name, goldenPath, i+1, gi, wi)
				break
			}
		}
	}
}

// splitListings cuts the golden file into one listing per invocation,
// keyed by its arguments.
func splitListings(s string) map[string]string {
	by := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(s, "\n") {
		if rest, ok := strings.CutPrefix(line, "=== gateaudit "); ok {
			name = strings.TrimSuffix(rest, "\n")
			continue
		}
		by[name] += line
	}
	return by
}
