package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/fs"
	"repro/internal/machine"
	"repro/internal/mls"
	"repro/internal/sched"
)

var (
	alice = acl.Principal{Person: "Alice", Project: "CSR", Tag: "a"}
	bob   = acl.Principal{Person: "Bob", Project: "SDC", Tag: "a"}
	unc   = mls.NewLabel(mls.Unclassified)
)

func newKernel(t *testing.T, stage Stage) *Kernel {
	t.Helper()
	k, err := New(Config{Stage: stage})
	if err != nil {
		t.Fatalf("New(%v): %v", stage, err)
	}
	t.Cleanup(k.Shutdown)
	return k
}

func userProc(t *testing.T, k *Kernel, who acl.Principal, label mls.Label) *Proc {
	t.Helper()
	p, err := k.CreateProcess(who.String(), who, label, machine.UserRing)
	if err != nil {
		t.Fatalf("CreateProcess: %v", err)
	}
	return p
}

// mkdir creates a directory under root via the hierarchy (setup shortcut;
// gate paths are exercised by the gate tests).
func mkdir(t *testing.T, k *Kernel, who acl.Principal, name string) uint64 {
	t.Helper()
	uid, err := k.Services().Hierarchy.Create(who, unc, fs.RootUID, name, fs.CreateOptions{
		Kind: fs.KindDirectory, Label: unc,
		ACL: acl.New(
			acl.Entry{Who: acl.Pattern{Person: who.Person, Project: acl.Wildcard, Tag: acl.Wildcard},
				Mode: acl.ModeStatus | acl.ModeModify | acl.ModeAppend},
			acl.Entry{Who: acl.Pattern{Person: acl.Wildcard, Project: acl.Wildcard, Tag: acl.Wildcard},
				Mode: acl.ModeStatus},
		),
	})
	if err != nil {
		t.Fatalf("mkdir %s: %v", name, err)
	}
	return uid
}

func TestKernelConstructionAllStages(t *testing.T) {
	for s := S0Baseline; s < NumStages; s++ {
		k := newKernel(t, s)
		if k.Services().Stage != s {
			t.Errorf("stage = %v", k.Services().Stage)
		}
		inv := k.Inventory()
		if inv.Gates == 0 || inv.UserGates == 0 || inv.TotalUnits == 0 {
			t.Errorf("%v: empty inventory %+v", s, inv)
		}
	}
}

func TestBootPatternByStage(t *testing.T) {
	k0 := newKernel(t, S0Baseline)
	if k0.BootReport != "bootstrap" || k0.PrivilegedBootSteps < 10 {
		t.Errorf("S0 boot = %s/%d", k0.BootReport, k0.PrivilegedBootSteps)
	}
	k3 := newKernel(t, S3InitRemoved)
	if k3.BootReport != "memory-image" || k3.PrivilegedBootSteps != 1 {
		t.Errorf("S3 boot = %s/%d", k3.BootReport, k3.PrivilegedBootSteps)
	}
}

func TestCostModelByStage(t *testing.T) {
	if got := newKernel(t, S0Baseline).Services().Cost.Name; !strings.Contains(got, "645") {
		t.Errorf("S0 cost model = %q", got)
	}
	if got := newKernel(t, S1LinkerRemoved).Services().Cost.Name; !strings.Contains(got, "6180") {
		t.Errorf("S1 cost model = %q", got)
	}
}

func TestUserCannotCallPrivilegedGates(t *testing.T) {
	k := newKernel(t, S0Baseline)
	p := userProc(t, k, alice, unc)
	_, err := p.CallGate("phcs_$ring0_peek", 0)
	if !machine.IsFaultClass(err, machine.FaultRing) {
		t.Errorf("user calling phcs_ gate = %v, want ring fault", err)
	}
	// A ring-2 process may.
	sys := acl.Principal{Person: "Init", Project: "Sys", Tag: "z"}
	p2, err := k.CreateProcess("sys", sys, mls.NewLabel(mls.TopSecret), machine.SupervisorRing)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.CallGate("phcs_$ring0_peek", 0); err != nil {
		t.Errorf("ring-2 calling phcs_ gate: %v", err)
	}
}

// TestPrivilegedGateCallAllocatesNothing pins a phcs_ call from ring 2 at
// 0 allocations, as an hcs_ call is: CallGate tries the hcs_ registry
// first, and that miss must not build an error.
func TestPrivilegedGateCallAllocatesNothing(t *testing.T) {
	k := newKernel(t, S6Restructured)
	sys := acl.Principal{Person: "Init", Project: "Sys", Tag: "z"}
	p, err := k.CreateProcess("sys", sys, mls.NewLabel(mls.TopSecret), machine.SupervisorRing)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hcs_$get_system_info", "phcs_$shutdown"} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := p.CallGate(name); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s from ring 2: %.1f allocs per call, want 0", name, allocs)
		}
	}
}

func TestGateArgumentValidation(t *testing.T) {
	k := newKernel(t, S0Baseline)
	p := userProc(t, k, alice, unc)
	// Wrong arity.
	if _, err := p.CallGate("hcs_$terminate_seg"); err == nil {
		t.Error("missing argument should be rejected")
	}
	// String pointer outside the argument segment.
	if _, err := p.CallGate("hcs_$initiate", 999999, 10, 0, 0); err == nil {
		t.Error("out-of-range string argument should be rejected")
	}
	// Implausible length.
	if _, err := p.CallGate("hcs_$initiate", 0, ArgSegWords+1, 0, 0); err == nil {
		t.Error("oversized string argument should be rejected")
	}
}

func TestCreateAndUseSegmentThroughGatesS0(t *testing.T) {
	k := newKernel(t, S0Baseline)
	mkdir(t, k, alice, "udd")
	p := userProc(t, k, alice, unc)

	// Create a branch via the path-keyed gate.
	dOff, dLen, err := p.GateString(">udd")
	if err != nil {
		t.Fatal(err)
	}
	nOff, nLen, err := p.GateString("notes")
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.CallGate("hcs_$append_branch", dOff, dLen, nOff, nLen, 0)
	if err != nil {
		t.Fatalf("append_branch: %v", err)
	}
	uid := out[0]
	if err := k.Services().Hierarchy.SetLength(alice, unc, uid, 64); err != nil {
		t.Fatal(err)
	}

	// Initiate by path and write through the segment.
	pOff, pLen, err := p.GateString(">udd>notes")
	if err != nil {
		t.Fatal(err)
	}
	rOff, rLen, err := p.GateString("notes")
	if err != nil {
		t.Fatal(err)
	}
	out, err = p.CallGate("hcs_$initiate", pOff, pLen, rOff, rLen)
	if err != nil {
		t.Fatalf("initiate: %v", err)
	}
	seg := machine.SegNo(out[0])
	if seg < FirstUserSegNo {
		t.Errorf("segno = %d", seg)
	}
	if err := p.CPU.Store(seg, 3, 42); err != nil {
		t.Fatalf("store through initiated segment: %v", err)
	}
	got, err := p.CPU.Load(seg, 3)
	if err != nil || got != 42 {
		t.Errorf("load = %d, %v", got, err)
	}

	// The reference name resolves via the kernel name space.
	out, err = p.CallGate("hcs_$fs_get_seg_ptr", rOff, rLen)
	if err != nil || machine.SegNo(out[0]) != seg {
		t.Errorf("fs_get_seg_ptr = %v, %v", out, err)
	}
	// Path reconstruction.
	out, err = p.CallGate("hcs_$fs_get_path_name", uint64(seg))
	if err != nil {
		t.Fatal(err)
	}
	path, err := p.ReadArgString(out[0], out[1])
	if err != nil || path != ">udd>notes" {
		t.Errorf("path = %q, %v", path, err)
	}
}

func TestACLEnforcedThroughGates(t *testing.T) {
	k := newKernel(t, S0Baseline)
	mkdir(t, k, alice, "udd")
	pa := userProc(t, k, alice, unc)
	pb := userProc(t, k, bob, unc)

	dOff, dLen, _ := pa.GateString(">udd")
	nOff, nLen, _ := pa.GateString("secret")
	if _, err := pa.CallGate("hcs_$append_branch", dOff, dLen, nOff, nLen, 0); err != nil {
		t.Fatal(err)
	}
	// Bob cannot initiate Alice's segment: the default ACL grants only
	// Alice.
	pOff, pLen, _ := pb.GateString(">udd>secret")
	_, err := pb.CallGate("hcs_$initiate", pOff, pLen, 0, 0)
	var de *acl.DeniedError
	if !errors.As(err, &de) {
		t.Errorf("bob initiate = %v, want ACL denial", err)
	}
	// Alice shares read access; Bob can now initiate, and the SDW he gets
	// carries read but not write.
	aOff, aLen, _ := pa.GateString(">udd>secret")
	patOff, patLen, _ := pa.GateString("Bob.*.*")
	if _, err := pa.CallGate("hcs_$add_acl_entry", aOff, aLen, patOff, patLen, uint64(acl.ModeRead)); err != nil {
		t.Fatalf("add_acl_entry: %v", err)
	}
	// Give the segment some pages so reads have something to hit.
	segUID, err := k.Services().Hierarchy.ResolvePath(alice, unc, ">udd>secret")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Services().Hierarchy.SetLength(alice, unc, segUID, 16); err != nil {
		t.Fatal(err)
	}
	out, err := pb.CallGate("hcs_$initiate", pOff, pLen, 0, 0)
	if err != nil {
		t.Fatalf("bob initiate after grant: %v", err)
	}
	seg := machine.SegNo(out[0])
	if _, err := pb.CPU.Load(seg, 0); err != nil {
		t.Errorf("bob read: %v", err)
	}
	if err := pb.CPU.Store(seg, 0, 1); !machine.IsFaultClass(err, machine.FaultAccess) {
		t.Errorf("bob write = %v, want access fault", err)
	}
}

// TestKernelPathRevocationThroughGates drives the S0/S1 kernel path
// service, where hcs_$get_uid and hcs_$initiate resolve a tree name inside
// ring 0, through a revocation and a re-grant on an interior directory.
// The very next call after each change must see it.
func TestKernelPathRevocationThroughGates(t *testing.T) {
	for _, stage := range []Stage{S0Baseline, S1LinkerRemoved} {
		t.Run(stage.String(), func(t *testing.T) {
			k := newKernel(t, stage)
			mkdir(t, k, alice, "udd")
			pa := userProc(t, k, alice, unc)
			pb := userProc(t, k, bob, unc)
			str := func(p *Proc, s string) (uint64, uint64) {
				t.Helper()
				off, n, err := p.GateString(s)
				if err != nil {
					t.Fatal(err)
				}
				return off, n
			}
			call := func(p *Proc, name string, args ...uint64) []uint64 {
				t.Helper()
				out, err := p.CallGate(name, args...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return out
			}
			dOff, dLen := str(pa, ">udd")
			nOff, nLen := str(pa, "doc")
			uid := call(pa, "hcs_$append_branch", dOff, dLen, nOff, nLen, 0)[0]
			docOff, docLen := str(pa, ">udd>doc")
			patOff, patLen := str(pa, "Bob.*.*")
			call(pa, "hcs_$add_acl_entry", docOff, docLen, patOff, patLen, uint64(acl.ModeRead))
			setBobOnUdd := func(mode acl.Mode) {
				t.Helper()
				call(pa, "hcs_$add_acl_entry", dOff, dLen, patOff, patLen, uint64(mode))
			}

			bOff, bLen := str(pb, ">udd>doc")
			var seg uint64
			allowed := func(when string) {
				t.Helper()
				if got := call(pb, "hcs_$get_uid", bOff, bLen)[0]; got != uid {
					t.Errorf("%s: get_uid = %#x, want %#x", when, got, uid)
				}
				s := call(pb, "hcs_$initiate", bOff, bLen, 0, 0)[0]
				if seg != 0 && s != seg {
					t.Errorf("%s: initiate = segment %d, want %d", when, s, seg)
				}
				seg = s
			}
			denied := func(when string) {
				t.Helper()
				var de *acl.DeniedError
				if _, err := pb.CallGate("hcs_$get_uid", bOff, bLen); !errors.As(err, &de) {
					t.Errorf("%s: get_uid = %v, want ACL denial", when, err)
				}
				if _, err := pb.CallGate("hcs_$initiate", bOff, bLen, 0, 0); !errors.As(err, &de) {
					t.Errorf("%s: initiate = %v, want ACL denial", when, err)
				}
			}

			allowed("first resolve")
			allowed("second resolve")
			// A null entry for Bob on >udd outranks the *.*.* status
			// grant: Bob may no longer search the directory.
			setBobOnUdd(0)
			denied("after revoke")
			setBobOnUdd(acl.ModeStatus)
			allowed("after re-grant")
		})
	}
}

func TestMLSEnforcedThroughGates(t *testing.T) {
	k := newKernel(t, S0Baseline)
	mkdir(t, k, alice, "udd")
	// An unclassified process creates an upgraded (secret) segment in the
	// unclassified directory — writing the directory at its own level is
	// fine, and the child label may rise. Everyone gets discretionary rw
	// so only the mandatory rules govern below.
	secret := mls.NewLabel(mls.Secret)
	uid, err := k.Services().Hierarchy.Create(alice, unc, fs.RootUID, "intel", fs.CreateOptions{
		Kind: fs.KindSegment, Label: secret, Length: 16,
		ACL: acl.New(acl.Entry{
			Who:  acl.Pattern{Person: acl.Wildcard, Project: acl.Wildcard, Tag: acl.Wildcard},
			Mode: acl.ModeRead | acl.ModeWrite,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = uid

	// The unclassified process gets write-only access: no read up, blind
	// write up permitted.
	pu := userProc(t, k, alice, unc)
	pOff, pLen, _ := pu.GateString(">intel")
	out, err := pu.CallGate("hcs_$initiate", pOff, pLen, 0, 0)
	if err != nil {
		t.Fatalf("unclassified initiate: %v", err)
	}
	seg := machine.SegNo(out[0])
	if _, err := pu.CPU.Load(seg, 0); !machine.IsFaultClass(err, machine.FaultAccess) {
		t.Errorf("read up = %v, want access fault", err)
	}
	if err := pu.CPU.Store(seg, 0, 9); err != nil {
		t.Errorf("write up (blind append) should be permitted: %v", err)
	}

	// A secret process gets read-only access: read down... is read at its
	// own level here; write at its own level is fine too — but writing a
	// CONFIDENTIAL object would be a write-down. Verify the secret process
	// can read and write the secret object.
	ps := userProc(t, k, alice, secret)
	pOff2, pLen2, _ := ps.GateString(">intel")
	out, err = ps.CallGate("hcs_$initiate", pOff2, pLen2, 0, 0)
	if err != nil {
		t.Fatalf("secret initiate: %v", err)
	}
	seg2 := machine.SegNo(out[0])
	if v, err := ps.CPU.Load(seg2, 0); err != nil || v != 9 {
		t.Errorf("secret read = %d, %v", v, err)
	}
	if err := ps.CPU.Store(seg2, 1, 1); err != nil {
		t.Errorf("secret write at own level: %v", err)
	}
}

func TestLinkerGatePresenceByStage(t *testing.T) {
	k0 := newKernel(t, S0Baseline)
	p0 := userProc(t, k0, alice, unc)
	if _, err := p0.CallGate("hcs_$get_search_rules"); err != nil {
		t.Errorf("S0 linker gate: %v", err)
	}
	k1 := newKernel(t, S1LinkerRemoved)
	p1 := userProc(t, k1, alice, unc)
	if _, err := p1.CallGate("hcs_$get_search_rules"); err == nil || !strings.Contains(err.Error(), "no gate named") {
		t.Errorf("S1 linker gate = %v, want gone", err)
	}
}

func TestRefnameGatePresenceByStage(t *testing.T) {
	k1 := newKernel(t, S1LinkerRemoved)
	p1 := userProc(t, k1, alice, unc)
	if _, err := p1.CallGate("hcs_$fs_get_seg_ptr", 0, 0); err == nil || strings.Contains(err.Error(), "no gate named") {
		// Gate exists at S1 (error should be about the unbound name).
		t.Errorf("S1 refname gate = %v", err)
	}
	k2 := newKernel(t, S2RefNamesRemoved)
	p2 := userProc(t, k2, alice, unc)
	if _, err := p2.CallGate("hcs_$fs_get_seg_ptr", 0, 0); err == nil || !strings.Contains(err.Error(), "no gate named") {
		t.Errorf("S2 refname gate = %v, want gone", err)
	}
	if _, err := p2.CallGate("hcs_$initiate_uid", 999); err == nil {
		// Gate exists; UID invalid.
		t.Error("initiate_uid of bogus UID should fail")
	}
}

func TestSegnoKeyedFSInterface(t *testing.T) {
	k := newKernel(t, S2RefNamesRemoved)
	mkdir(t, k, alice, "udd")
	p := userProc(t, k, alice, unc)

	out, err := p.CallGate("hcs_$root_dir")
	if err != nil {
		t.Fatalf("root_dir: %v", err)
	}
	root := out[0]
	nOff, nLen, _ := p.GateString("udd")
	out, err = p.CallGate("hcs_$initiate_dir", root, nOff, nLen)
	if err != nil {
		t.Fatalf("initiate_dir: %v", err)
	}
	udd := out[0]

	// Create a segment in >udd through the segno-keyed gate.
	sOff, sLen, _ := p.GateString("data")
	out, err = p.CallGate("hcs_$append_branch", udd, sOff, sLen, 0)
	if err != nil {
		t.Fatalf("append_branch: %v", err)
	}
	uid := out[0]

	// Lookup finds it.
	out, err = p.CallGate("hcs_$lookup_entry", udd, sOff, sLen)
	if err != nil || out[0] != uid || out[1] != 0 {
		t.Errorf("lookup_entry = %v, %v", out, err)
	}

	// Directories expose NO direct access: loading through the directory
	// segment number faults.
	if _, err := p.CPU.Load(machine.SegNo(udd), 0); !machine.IsFaultClass(err, machine.FaultAccess) {
		t.Errorf("direct directory read = %v, want access fault", err)
	}

	// Initiate by UID and use the segment.
	if err := k.Services().Hierarchy.SetLength(alice, unc, uid, 16); err != nil {
		t.Fatal(err)
	}
	out, err = p.CallGate("hcs_$initiate_uid", uid)
	if err != nil {
		t.Fatalf("initiate_uid: %v", err)
	}
	seg := machine.SegNo(out[0])
	if err := p.CPU.Store(seg, 0, 7); err != nil {
		t.Errorf("store: %v", err)
	}
}

func TestEventChannelsGovernedByMemoryProtection(t *testing.T) {
	k := newKernel(t, S2RefNamesRemoved)
	mkdir(t, k, alice, "udd")
	pa := userProc(t, k, alice, unc)
	pb := userProc(t, k, bob, unc)

	// Alice creates a segment and a channel governed by it.
	out, err := pa.CallGate("hcs_$root_dir")
	if err != nil {
		t.Fatal(err)
	}
	root := out[0]
	nOff, nLen, _ := pa.GateString("udd")
	out, _ = pa.CallGate("hcs_$initiate_dir", root, nOff, nLen)
	udd := out[0]
	sOff, sLen, _ := pa.GateString("mailbox")
	out, err = pa.CallGate("hcs_$append_branch", udd, sOff, sLen, 0)
	if err != nil {
		t.Fatal(err)
	}
	uid := out[0]
	out, err = pa.CallGate("hcs_$initiate_uid", uid)
	if err != nil {
		t.Fatal(err)
	}
	seg := out[0]
	out, err = pa.CallGate("hcs_$create_ev_chn", seg)
	if err != nil {
		t.Fatalf("create_ev_chn: %v", err)
	}
	chn := out[0]

	// Alice can signal her own channel.
	if _, err := pa.CallGate("hcs_$wakeup", chn, 5); err != nil {
		t.Errorf("alice wakeup: %v", err)
	}
	// Bob, with no access to the governing segment, cannot.
	if _, err := pb.CallGate("hcs_$wakeup", chn, 6); err == nil {
		t.Error("bob wakeup without write access should fail")
	}
	// Grant Bob write access to the segment: now he may signal — the
	// channel right IS the memory right.
	patOff, patLen, _ := pa.GateString("Bob.*.*")
	if _, err := pa.CallGate("hcs_$add_acl_entry", udd, sOff, sLen, patOff, patLen, uint64(acl.ModeWrite)); err != nil {
		t.Fatalf("acl grant: %v", err)
	}
	if _, err := pb.CallGate("hcs_$wakeup", chn, 7); err != nil {
		t.Errorf("bob wakeup after grant: %v", err)
	}
	// Pending events: 2.
	out, err = pa.CallGate("hcs_$read_events", chn)
	if err != nil || out[0] != 2 {
		t.Errorf("read_events = %v, %v", out, err)
	}
}

func TestBlockAndTimerUnderScheduler(t *testing.T) {
	k := newKernel(t, S2RefNamesRemoved)
	mkdir(t, k, alice, "udd")
	p := userProc(t, k, alice, unc)

	// Setup: a segment-governed channel.
	out, _ := p.CallGate("hcs_$root_dir")
	root := out[0]
	nOff, nLen, _ := p.GateString("udd")
	out, _ = p.CallGate("hcs_$initiate_dir", root, nOff, nLen)
	udd := out[0]
	sOff, sLen, _ := p.GateString("clockbox")
	out, err := p.CallGate("hcs_$append_branch", udd, sOff, sLen, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err = p.CallGate("hcs_$initiate_uid", out[0])
	if err != nil {
		t.Fatal(err)
	}
	out, err = p.CallGate("hcs_$create_ev_chn", out[0])
	if err != nil {
		t.Fatal(err)
	}
	chn := out[0]

	// A scheduled process blocks on the channel; a timer set through the
	// gate wakes it with data.
	var got uint64
	if _, err := p.CallGate("hcs_$set_timer", 500, chn, 99); err != nil {
		t.Fatalf("set_timer: %v", err)
	}
	p.Run(func(pc *sched.ProcCtx) {
		out, err := p.CallGate("hcs_$block", chn)
		if err != nil {
			t.Errorf("block: %v", err)
			return
		}
		got = out[0]
	})
	k.Services().Scheduler.Run(0)
	if got != 99 {
		t.Errorf("timer data = %d, want 99", got)
	}
	if k.Services().Clock.Now() < 500 {
		t.Errorf("clock = %d, want >= 500", k.Services().Clock.Now())
	}

	// Blocking without a scheduled process is rejected cleanly.
	if _, err := p.CallGate("hcs_$block", chn); err == nil || !strings.Contains(err.Error(), "scheduled process") {
		t.Errorf("direct block = %v", err)
	}
}
