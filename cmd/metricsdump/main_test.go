package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// dump runs metricsdump with args and returns its exit status and output.
func dump(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSeededJSONRunsAreIdentical(t *testing.T) {
	args := []string{"-json", "-seed", "9", "-n", "8", "-steps", "4"}
	code1, out1, errOut := dump(t, args...)
	if code1 != 0 {
		t.Fatalf("first run exited %d: %s", code1, errOut)
	}
	code2, out2, _ := dump(t, args...)
	if code2 != 0 {
		t.Fatalf("second run exited %d", code2)
	}
	if out1 != out2 {
		t.Fatalf("seeded runs differ:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(out1), &snap); err != nil {
		t.Fatalf("output is not a JSON snapshot: %v", err)
	}
	if len(snap.Counters) == 0 {
		t.Fatal("snapshot holds no counters")
	}
}

func TestFilterKeepsOnlyThePrefix(t *testing.T) {
	code, out, errOut := dump(t, "-json", "-filter", "gate.", "-n", "4", "-steps", "4")
	if code != 0 {
		t.Fatalf("exited %d: %s", code, errOut)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("output is not a JSON snapshot: %v", err)
	}
	var names []string
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	for _, g := range snap.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range snap.Histograms {
		names = append(names, h.Name)
	}
	if len(names) == 0 {
		t.Fatal("filter gate. printed no metrics")
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "gate.") {
			t.Errorf("filter gate. printed %q", name)
		}
	}
}

func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-stage", "9"},
		{"-n", "0"},
		{"-sample", "-1"},
	} {
		code, out, errOut := dump(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out != "" || !strings.HasPrefix(errOut, "metricsdump: ") {
			t.Errorf("%v: stdout %q, stderr %q; want the usage error on stderr only", args, out, errOut)
		}
	}
}
