package userspace

import (
	"errors"
	"testing"

	"repro/internal/acl"
	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/linker"
	"repro/internal/machine"
	"repro/internal/mls"
)

var (
	alice = acl.Principal{Person: "Alice", Project: "CSR", Tag: "a"}
	unc   = mls.NewLabel(mls.Unclassified)
)

func newKernel(t *testing.T, stage core.Stage) *core.Kernel {
	t.Helper()
	k, err := core.New(core.Config{Stage: stage})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Shutdown)
	return k
}

func setupTree(t *testing.T, k *core.Kernel) (libUID, segUID uint64) {
	t.Helper()
	h := k.Services().Hierarchy
	lib, err := h.Create(alice, unc, fs.RootUID, "lib", fs.CreateOptions{Kind: fs.KindDirectory, Label: unc})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := h.Create(alice, unc, lib, "data", fs.CreateOptions{Kind: fs.KindSegment, Label: unc, Length: 32})
	if err != nil {
		t.Fatal(err)
	}
	return lib, seg
}

func userProc(t *testing.T, k *core.Kernel) *core.Proc {
	t.Helper()
	p, err := k.CreateProcess("alice", alice, unc, machine.UserRing)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestResolvePathUserRing(t *testing.T) {
	k := newKernel(t, core.S2RefNamesRemoved)
	_, segUID := setupTree(t, k)
	p := userProc(t, k)
	e := NewEnv(p)
	uid, err := e.ResolvePath(">lib>data")
	if err != nil {
		t.Fatalf("ResolvePath: %v", err)
	}
	if uid != segUID {
		t.Errorf("uid = %#x, want %#x", uid, segUID)
	}
	if _, err := e.ResolvePath(">lib>ghost"); err == nil {
		t.Error("missing entry should fail")
	}
	if _, err := e.ResolvePath("relative"); err == nil {
		t.Error("relative path should fail")
	}
}

func TestResolvePathKernelDelegationPreS2(t *testing.T) {
	k := newKernel(t, core.S1LinkerRemoved)
	_, segUID := setupTree(t, k)
	p := userProc(t, k)
	e := NewEnv(p)
	uid, err := e.ResolvePath(">lib>data")
	if err != nil || uid != segUID {
		t.Errorf("S1 resolve = %#x, %v; want %#x", uid, err, segUID)
	}
}

func TestLinkChasedInUserRing(t *testing.T) {
	k := newKernel(t, core.S2RefNamesRemoved)
	_, segUID := setupTree(t, k)
	if err := k.Services().Hierarchy.AddLink(alice, unc, fs.RootUID, "shortcut", ">lib>data"); err != nil {
		t.Fatal(err)
	}
	p := userProc(t, k)
	e := NewEnv(p)
	uid, err := e.ResolvePath(">shortcut")
	if err != nil || uid != segUID {
		t.Errorf("link resolve = %#x, %v", uid, err)
	}
}

func TestInitiateBindsPrivateName(t *testing.T) {
	k := newKernel(t, core.S2RefNamesRemoved)
	setupTree(t, k)
	p := userProc(t, k)
	e := NewEnv(p)
	seg, err := e.Initiate(">lib>data", "data")
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if got, ok := e.Names.Resolve("data"); !ok || got != seg {
		t.Errorf("private name = %d, %v", got, ok)
	}
	// The kernel knows nothing about the name: only the UID mapping.
	if err := e.Terminate(seg); err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	if _, ok := e.Names.Resolve("data"); ok {
		t.Error("name survived terminate")
	}
}

func TestUserRingLinkerEndToEnd(t *testing.T) {
	for _, stage := range []core.Stage{core.S1LinkerRemoved, core.S2RefNamesRemoved, core.S6Restructured} {
		k := newKernel(t, stage)
		lib, err := k.Services().Hierarchy.Create(alice, unc, fs.RootUID, "lib", fs.CreateOptions{Kind: fs.KindDirectory, Label: unc})
		if err != nil {
			t.Fatal(err)
		}
		math := &machine.Procedure{Name: "math", Entries: []machine.EntryFunc{
			func(_ *machine.ExecContext, a []uint64) ([]uint64, error) { return []uint64{a[0] * 3}, nil },
		}}
		if _, err := k.InstallProgram(alice, unc, lib, "math", math,
			[]linker.Symbol{{Name: "triple", Entry: 0}}, fs.CreateOptions{Label: unc}); err != nil {
			t.Fatal(err)
		}
		p := userProc(t, k)
		e := NewEnv(p)
		e.SearchRules = []string{">lib"}

		out, err := p.CPU.CallSym(core.SegArgs, machine.LinkRef{SegName: "math", EntryName: "triple"}, []uint64{5})
		if err != nil {
			t.Fatalf("%v: CallSym: %v", stage, err)
		}
		if out[0] != 15 {
			t.Errorf("%v: triple(5) = %d", stage, out[0])
		}
		// The link is snapped: second call without the linker.
		p.CPU.Linker = nil
		if out, err := p.CPU.CallSym(core.SegArgs, machine.LinkRef{SegName: "math", EntryName: "triple"}, []uint64{4}); err != nil || out[0] != 12 {
			t.Errorf("%v: snapped call = %v, %v", stage, out, err)
		}
		k.Shutdown()
	}
}

func TestLinkerSearchRulesMiss(t *testing.T) {
	k := newKernel(t, core.S2RefNamesRemoved)
	setupTree(t, k)
	p := userProc(t, k)
	e := NewEnv(p)
	e.SearchRules = []string{">lib"}
	_, err := p.CPU.CallSym(core.SegArgs, machine.LinkRef{SegName: "nothere", EntryName: "x"}, nil)
	if !errors.Is(err, linker.ErrSegmentNotFound) {
		t.Errorf("miss = %v", err)
	}
}

func TestAnsweringSubsystemLogin(t *testing.T) {
	k := newKernel(t, core.S4LoginDemoted)
	if err := k.Services().Users.AddUser("Schroeder", "CSR", "multics75", mls.NewLabel(mls.Secret)); err != nil {
		t.Fatal(err)
	}
	as, err := NewAnsweringSubsystem(k)
	if err != nil {
		t.Fatalf("NewAnsweringSubsystem: %v", err)
	}
	if as.SubsystemProcess().CPU.Ring() != machine.SupervisorRing {
		t.Errorf("subsystem ring = %v, want ring 2", as.SubsystemProcess().CPU.Ring())
	}
	p, err := as.Login("Schroeder", "CSR", "multics75", mls.Unclassified)
	if err != nil {
		t.Fatalf("Login: %v", err)
	}
	if p.Principal.Person != "Schroeder" || p.CPU.Ring() != machine.UserRing {
		t.Errorf("process = %v in %v", p.Principal, p.CPU.Ring())
	}
	// Failures behave identically to the privileged configuration.
	if _, err := as.Login("Schroeder", "CSR", "wrong", mls.Unclassified); !errors.Is(err, auth.ErrBadPassword) {
		t.Errorf("bad password = %v", err)
	}
	if _, err := as.Login("Schroeder", "CSR", "multics75", mls.TopSecret); !errors.Is(err, auth.ErrClearance) {
		t.Errorf("over clearance = %v", err)
	}
}

func TestAnsweringSubsystemRequiresS4(t *testing.T) {
	k := newKernel(t, core.S0Baseline)
	if _, err := NewAnsweringSubsystem(k); err == nil {
		t.Error("subsystem should be rejected before S4")
	}
}

func TestUserProcessCannotCreateProcesses(t *testing.T) {
	// The demotion's security point: the create-process gate is reachable
	// from ring 2 but NOT from ring 4 — a user process cannot mint
	// arbitrary principals.
	k := newKernel(t, core.S4LoginDemoted)
	if err := k.Services().Users.AddUser("Victim", "CSR", "password", mls.NewLabel(mls.Secret)); err != nil {
		t.Fatal(err)
	}
	p := userProc(t, k)
	pOff, pLen, _ := p.GateString("Victim")
	jOff, jLen, _ := p.GateString("CSR")
	_, err := p.CallGate("phcs_$create_process", pOff, pLen, jOff, jLen, uint64(mls.Unclassified))
	if !machine.IsFaultClass(err, machine.FaultRing) {
		t.Errorf("user-ring create_process = %v, want ring fault", err)
	}
}

func TestDirCacheReuse(t *testing.T) {
	k := newKernel(t, core.S2RefNamesRemoved)
	setupTree(t, k)
	p := userProc(t, k)
	e := NewEnv(p)
	if _, err := e.ResolvePath(">lib>data"); err != nil {
		t.Fatal(err)
	}
	known := p.KST.Len()
	// Second resolution through the cached directory must not initiate
	// more segments.
	if _, err := e.ResolvePath(">lib>data"); err != nil {
		t.Fatal(err)
	}
	if p.KST.Len() != known {
		t.Errorf("KST grew from %d to %d on cached resolve", known, p.KST.Len())
	}
}

// TestPathValidation checks that the walk validates a tree name before
// cutting it: a relative name, the root and an empty component give the
// errors they always gave, and nothing is initiated for them.
func TestPathValidation(t *testing.T) {
	k := newKernel(t, core.S2RefNamesRemoved)
	setupTree(t, k)
	p := userProc(t, k)
	e := NewEnv(p)
	for _, c := range []struct{ path, want string }{
		{"lib>data", `userspace: "lib>data" is not an absolute tree name`},
		{"", `userspace: "" is not an absolute tree name`},
		{">", "userspace: the root has no UID-returning gate; directories are named by segment number"},
		{">lib>>data", `userspace: empty component in ">lib>>data"`},
		{">>lib", `userspace: empty component in ">>lib"`},
		{">lib>", `userspace: empty component in ">lib>"`},
	} {
		if _, err := e.ResolvePath(c.path); err == nil || err.Error() != c.want {
			t.Errorf("ResolvePath(%q) = %v, want %q", c.path, err, c.want)
		}
	}
	if _, err := e.InitiateDir(">lib>>x"); err == nil || err.Error() != `userspace: empty component in ">lib>>x"` {
		t.Errorf("InitiateDir of an empty component = %v", err)
	}
	if err := checkPath(">"); err != nil {
		t.Errorf("checkPath(\">\") = %v, want nil", err)
	}
	if n := p.KST.Len(); n != 0 {
		t.Errorf("invalid names initiated %d segments, want 0", n)
	}
}
