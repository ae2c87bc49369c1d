package main

import (
	"bytes"
	"strings"
	"testing"
)

// gateaudit runs the command with args and returns its exit status and
// output.
func gateaudit(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestListingsAreIdentical checks that each listing exits 0, prints what
// it is for, and prints the same bytes on a second run.
func TestListingsAreIdentical(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "stage"},
		{[]string{"-stage", "6"}, "kernel inventory for"},
		{[]string{"-stats", "-seed", "75"}, "gate runtime stats at"},
	} {
		name := strings.Join(tc.args, " ")
		code, first, errOut := gateaudit(t, tc.args...)
		if code != 0 {
			t.Fatalf("%q exited %d: %s", name, code, errOut)
		}
		if !strings.Contains(first, tc.want) {
			t.Errorf("%q: output lacks %q:\n%s", name, tc.want, first)
		}
		if _, second, _ := gateaudit(t, tc.args...); second != first {
			t.Errorf("%q: two runs differ:\n--- first ---\n%s\n--- second ---\n%s", name, first, second)
		}
	}
}

func TestBadStageExit2(t *testing.T) {
	code, _, errOut := gateaudit(t, "-stage", "9")
	if code != 2 {
		t.Errorf("-stage 9 exited %d, want 2", code)
	}
	if !strings.Contains(errOut, "-stage 9") {
		t.Errorf("stderr does not name the bad flag:\n%s", errOut)
	}
}
