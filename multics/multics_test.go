package multics

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/auth"
	"repro/internal/linker"
	"repro/internal/machine"
)

func newSys(t *testing.T, stage Stage) *System {
	t.Helper()
	sys, err := New(stage)
	if err != nil {
		t.Fatalf("New(%v): %v", stage, err)
	}
	t.Cleanup(sys.Shutdown)
	if err := sys.AddUser("Schroeder", "CSR", "multics75", Secret); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddUser("Saltzer", "CSR", "projmac9", Secret); err != nil {
		t.Fatal(err)
	}
	return sys
}

func login(t *testing.T, sys *System, person, pw string) *Session {
	t.Helper()
	sess, err := sys.Login(person, "CSR", pw, Unclassified)
	if err != nil {
		t.Fatalf("Login(%s): %v", person, err)
	}
	return sess
}

// allStages is the full configuration sweep the facade must support.
var allStages = []Stage{
	StageBaseline, StageLinkerRemoved, StageRefNamesRemoved,
	StageInitRemoved, StageLoginDemoted, StageIOConsolidated, StageRestructured,
}

func TestLoginAllStages(t *testing.T) {
	for _, stage := range allStages {
		sys := newSys(t, stage)
		sess := login(t, sys, "Schroeder", "multics75")
		if sess.Principal() != "Schroeder.CSR.a" {
			t.Errorf("%v: principal = %s", stage, sess.Principal())
		}
		if _, err := sys.Login("Schroeder", "CSR", "wrong", Unclassified); !errors.Is(err, auth.ErrBadPassword) {
			t.Errorf("%v: bad password = %v", stage, err)
		}
	}
}

func TestFileLifecycleAllStages(t *testing.T) {
	for _, stage := range allStages {
		sys := newSys(t, stage)
		sess := login(t, sys, "Schroeder", "multics75")

		if err := sess.MakeDir(">udd"); err != nil {
			t.Fatalf("%v: MakeDir: %v", stage, err)
		}
		if err := sess.CreateSegment(">udd>notes", 64); err != nil {
			t.Fatalf("%v: CreateSegment: %v", stage, err)
		}
		seg, err := sess.Open(">udd>notes", "notes")
		if err != nil {
			t.Fatalf("%v: Open: %v", stage, err)
		}
		if err := seg.WriteWord(5, 1234); err != nil {
			t.Fatalf("%v: WriteWord: %v", stage, err)
		}
		v, err := seg.ReadWord(5)
		if err != nil || v != 1234 {
			t.Errorf("%v: ReadWord = %d, %v", stage, v, err)
		}
		names, err := sess.List(">udd")
		if err != nil || len(names) != 1 || names[0] != "notes" {
			t.Errorf("%v: List = %v, %v", stage, names, err)
		}
		if err := seg.Close(); err != nil {
			t.Errorf("%v: Close: %v", stage, err)
		}
	}
}

func TestSharingViaACLAllStages(t *testing.T) {
	for _, stage := range allStages {
		sys := newSys(t, stage)
		owner := login(t, sys, "Schroeder", "multics75")
		other := login(t, sys, "Saltzer", "projmac9")

		if err := owner.MakeDir(">udd"); err != nil {
			t.Fatal(err)
		}
		if err := owner.CreateSegment(">udd>shared", 16); err != nil {
			t.Fatal(err)
		}
		// Other user has directory status (world default on >udd? No: the
		// default ACL grants the creator sma; grant status for the walk,
		// then segment read).
		if err := owner.SetACL(">udd", "Saltzer.*.*", "s"); err != nil {
			t.Fatalf("%v: SetACL dir: %v", stage, err)
		}
		// Before the grant on the segment itself, access fails.
		if _, err := other.Open(">udd>shared", ""); err == nil {
			t.Errorf("%v: open before grant should fail", stage)
		}
		if err := owner.SetACL(">udd>shared", "Saltzer.*.*", "r"); err != nil {
			t.Fatalf("%v: SetACL seg: %v", stage, err)
		}
		seg, err := other.Open(">udd>shared", "")
		if err != nil {
			t.Fatalf("%v: open after grant: %v", stage, err)
		}
		if _, err := seg.ReadWord(0); err != nil {
			t.Errorf("%v: shared read: %v", stage, err)
		}
		if err := seg.WriteWord(0, 1); !machine.IsFaultClass(err, machine.FaultAccess) {
			t.Errorf("%v: shared write = %v, want access fault", stage, err)
		}
	}
}

func TestDynamicLinkingAllStages(t *testing.T) {
	for _, stage := range allStages {
		sys := newSys(t, stage)
		sess := login(t, sys, "Schroeder", "multics75")
		if err := sess.MakeDir(">lib"); err != nil {
			t.Fatal(err)
		}
		mathProc := &machine.Procedure{Name: "math", Entries: []machine.EntryFunc{
			func(_ *machine.ExecContext, a []uint64) ([]uint64, error) { return []uint64{a[0] + a[1]}, nil },
		}}
		if err := sys.InstallProgram(sess, ">lib", "math",
			mathProc, []linker.Symbol{{Name: "add", Entry: 0}}); err != nil {
			t.Fatalf("%v: InstallProgram: %v", stage, err)
		}
		if err := sess.SetSearchRules(">lib"); err != nil {
			t.Fatalf("%v: SetSearchRules: %v", stage, err)
		}
		out, err := sess.Call("math", "add", 20, 22)
		if err != nil {
			t.Fatalf("%v: Call: %v", stage, err)
		}
		if out[0] != 42 {
			t.Errorf("%v: add(20,22) = %d", stage, out[0])
		}
		// Second call runs on the snapped link.
		out, err = sess.Call("math", "add", 1, 2)
		if err != nil || out[0] != 3 {
			t.Errorf("%v: snapped call = %v, %v", stage, out, err)
		}
	}
}

func TestMLSAcrossSessions(t *testing.T) {
	sys := newSys(t, StageRestructured)
	low := login(t, sys, "Schroeder", "multics75")
	high, err := sys.Login("Saltzer", "CSR", "projmac9", Secret)
	if err != nil {
		t.Fatal(err)
	}
	if err := low.MakeDir(">shared"); err != nil {
		t.Fatal(err)
	}
	if err := low.SetACL(">shared", "*.*.*", "sma"); err != nil {
		t.Fatal(err)
	}
	if err := low.CreateSegment(">shared>low_data", 16); err != nil {
		t.Fatal(err)
	}
	if err := low.SetACL(">shared>low_data", "*.*.*", "rw"); err != nil {
		t.Fatal(err)
	}
	// The secret session can read the unclassified data but not write it.
	seg, err := high.Open(">shared>low_data", "")
	if err != nil {
		t.Fatalf("high open: %v", err)
	}
	if _, err := seg.ReadWord(0); err != nil {
		t.Errorf("read down: %v", err)
	}
	if err := seg.WriteWord(0, 1); !machine.IsFaultClass(err, machine.FaultAccess) {
		t.Errorf("write down = %v, want access fault", err)
	}
}

func TestLoginLabelAboveClearanceRejected(t *testing.T) {
	sys := newSys(t, StageRestructured)
	if _, err := sys.Login("Schroeder", "CSR", "multics75", TopSecret); !errors.Is(err, auth.ErrClearance) {
		t.Errorf("over-clearance login = %v", err)
	}
}

func TestBadPaths(t *testing.T) {
	sys := newSys(t, StageRestructured)
	sess := login(t, sys, "Schroeder", "multics75")
	for _, bad := range []string{"", ">", "relative", ">a>"} {
		if err := sess.MakeDir(bad); err == nil {
			t.Errorf("MakeDir(%q) should fail", bad)
		}
	}
	if _, err := sess.Open(">no>such", ""); err == nil {
		t.Error("Open of missing path should fail")
	}
	if _, err := sess.List(">missing"); err == nil {
		t.Error("List of missing dir should fail")
	}
}

func TestSetACLInvalidMode(t *testing.T) {
	sys := newSys(t, StageRestructured)
	sess := login(t, sys, "Schroeder", "multics75")
	if err := sess.MakeDir(">d"); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetACL(">d", "*.*.*", "zz"); err == nil || !strings.Contains(err.Error(), "invalid mode") {
		t.Errorf("bad mode = %v", err)
	}
}

// TestLoginLeavesOnlyTheUsersProcess checks that a login before S4, which
// drives as_$login from an initializer process, destroys that process:
// N logins raise the live count by exactly N, and a refused login by 0.
func TestLoginLeavesOnlyTheUsersProcess(t *testing.T) {
	const n = 4
	for _, stage := range allStages[:StageLoginDemoted] {
		sys := newSys(t, stage)
		before := sys.Kernel.ProcessCounts().Live
		for i := 0; i < n; i++ {
			login(t, sys, "Schroeder", "multics75")
		}
		if _, err := sys.Login("Schroeder", "CSR", "wrong", Unclassified); err == nil {
			t.Fatalf("%v: login with a bad password succeeded", stage)
		}
		if got := sys.Kernel.ProcessCounts().Live - before; got != n {
			t.Errorf("%v: %d logins raised the live process count by %d, want %d", stage, n, got, n)
		}
	}
}

// TestDialledProcessHasNoUserRingLinker checks that a network login
// creates the process without a user-ring environment: installing the
// user-ring linker is the only mark NewEnv leaves on a process, and a
// dialled connection's process has none.
func TestDialledProcessHasNoUserRingLinker(t *testing.T) {
	for _, stage := range []Stage{StageLinkerRemoved, StageRestructured} {
		sys := newSys(t, stage)
		c, err := sys.Attach("Schroeder", "CSR", "multics75", Unclassified)
		if err != nil {
			t.Fatalf("%v: %v", stage, err)
		}
		if c.Proc().CPU.Linker != nil {
			t.Errorf("%v: a dialled connection's process has a user-ring linker", stage)
		}
		if sess := login(t, sys, "Saltzer", "projmac9"); sess.Proc.CPU.Linker == nil {
			t.Errorf("%v: a Login session has no user-ring linker", stage)
		}
	}
}

// TestTreeOpsAllocations pins what tree operations allocate at S6 once
// the walk's directories are cached: an open-read-close allocates the
// Segment handle, the new descriptor's backing and the entry name the
// kernel reads; a listing allocates the names it returns. Gate argument
// lists, results and the walk itself allocate nothing.
func TestTreeOpsAllocations(t *testing.T) {
	sys := newSys(t, StageRestructured)
	sess := login(t, sys, "Schroeder", "multics75")
	for _, d := range []string{">udd", ">udd>csr"} {
		if err := sess.MakeDir(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if err := sess.CreateSegment(">udd>csr>"+name, 64); err != nil {
			t.Fatal(err)
		}
	}
	openReadClose := func() {
		seg, err := sess.Open(">udd>csr>beta", "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seg.ReadWord(3); err != nil {
			t.Fatal(err)
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	list := func() {
		if names, err := sess.List(">udd>csr"); err != nil || len(names) != 3 {
			t.Fatalf("List = %v, %v", names, err)
		}
	}
	for _, c := range []struct {
		name string
		op   func()
		max  float64
	}{{"open-read-close", openReadClose, 3}, {"list", list, 3}} {
		c.op() // warm the walk's directory cache and the call frames
		if n := testing.AllocsPerRun(100, c.op); n > c.max {
			t.Errorf("%s allocates %.0f times, want at most %.0f", c.name, n, c.max)
		}
	}
}
