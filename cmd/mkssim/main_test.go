package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// mkssim runs the command with args and returns its exit status and output.
func mkssim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

var compromises = regexp.MustCompile(`(\d+) supervisor compromises`)

// pentestCompromises runs the scenario plus the penetration suite at
// stage and returns the reported supervisor-compromise count.
func pentestCompromises(t *testing.T, stage string) string {
	t.Helper()
	code, out, errOut := mkssim(t, "-stage", stage, "-pentest")
	if code != 0 {
		t.Fatalf("-stage %s -pentest exited %d: %s", stage, code, errOut)
	}
	if !strings.Contains(out, "scenario complete") {
		t.Fatalf("-stage %s: no \"scenario complete\" in:\n%s", stage, out)
	}
	m := compromises.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("-stage %s: no penetration summary in:\n%s", stage, out)
	}
	return m[1]
}

// TestPentestRestructuredKernelHasNoCompromise runs the whole public
// surface — login, hierarchy, ACLs, labels, dynamic linking and the
// penetration suite — on the restructured kernel. Under -race it also
// checks that one goroutine drives the kernel throughout.
func TestPentestRestructuredKernelHasNoCompromise(t *testing.T) {
	if got := pentestCompromises(t, "6"); got != "0" {
		t.Errorf("stage 6: %s supervisor compromises, want 0", got)
	}
}

// TestPentestBaselineHasTwoCompromises pins the paper's baseline: the
// unreduced supervisor falls to two of the suite's attacks.
func TestPentestBaselineHasTwoCompromises(t *testing.T) {
	if got := pentestCompromises(t, "0"); got != "2" {
		t.Errorf("stage 0: %s supervisor compromises, want 2", got)
	}
}

func TestRunsAreIdentical(t *testing.T) {
	_, first, _ := mkssim(t, "-pentest")
	_, second, _ := mkssim(t, "-pentest")
	if first != second {
		t.Fatalf("two runs differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

func TestBadStageExit2(t *testing.T) {
	code, _, errOut := mkssim(t, "-stage", "9")
	if code != 2 {
		t.Errorf("-stage 9 exited %d, want 2", code)
	}
	if !strings.Contains(errOut, "-stage 9") {
		t.Errorf("stderr does not name the bad flag:\n%s", errOut)
	}
}
