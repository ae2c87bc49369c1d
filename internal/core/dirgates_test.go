package core

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/dirgates.txt from fresh conformance runs")

const dirGatesGolden = "testdata/dirgates.txt"

// checkDirGateStats pins the runtime cost of the ten directory-control
// gates: it compares each gate's calls, errors and vcycles on k with the
// section of testdata/dirgates.txt named stage. The conformance tests
// call it after driving every gate, so a change that moves what a gate
// charges fails here, naming the gate and the stage. With -update it
// rewrites only that section.
func checkDirGateStats(t *testing.T, k *Kernel, stage string) {
	t.Helper()
	byName := map[string]string{}
	for _, st := range k.Services().UserGates.Stats() {
		byName[st.Name] = fmt.Sprintf("calls %d errors %d vcycles %d", st.Calls, st.Errors, st.VCycles)
	}
	var got []string
	for _, op := range k.dirOps() {
		got = append(got, op.name+" "+byName[op.name])
	}
	sections := map[string][]string{}
	raw, err := os.ReadFile(dirGatesGolden)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (create it with -update)", err)
	}
	name := ""
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "=== "); ok {
			name = rest
		} else if name != "" {
			sections[name] = append(sections[name], line)
		}
	}
	if *update {
		sections[stage] = got
		var b strings.Builder
		keys := make([]string, 0, len(sections))
		for s := range sections {
			keys = append(keys, s)
		}
		sort.Strings(keys)
		for _, s := range keys {
			b.WriteString("=== " + s + "\n" + strings.Join(sections[s], "\n") + "\n")
		}
		if err := os.WriteFile(dirGatesGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := sections[stage]
	if !ok {
		t.Fatalf("%s has no section %q (create it with -update)", dirGatesGolden, stage)
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("%s: directory gate differs from %s:\n got: %q\nwant: %q", stage, dirGatesGolden, g, w)
		}
	}
}
