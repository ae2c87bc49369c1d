package core

import (
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/fs"
	"repro/internal/linker"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mls"
)

func inv(t *testing.T, stage Stage) Inventory {
	t.Helper()
	k := newKernel(t, stage)
	return k.Inventory()
}

// TestInventoryReproducesPaperShapes is the structural heart of the
// reproduction: E1, E2, E3, E9 as assertions.
func TestInventoryReproducesPaperShapes(t *testing.T) {
	i0 := inv(t, S0Baseline)
	i1 := inv(t, S1LinkerRemoved)
	i2 := inv(t, S2RefNamesRemoved)

	// E1: linker removal eliminates ~10% of the gate entry points.
	drop := float64(i0.Gates-i1.Gates) / float64(i0.Gates)
	if drop < 0.07 || drop > 0.16 {
		t.Errorf("E1: linker removal cut gates by %.1f%%, want ~10%%", drop*100)
	}

	// E3: linker + refname removals cut user-available entries by ~1/3.
	udrop := float64(i0.UserGates-i2.UserGates) / float64(i0.UserGates)
	if udrop < 0.25 || udrop > 0.42 {
		t.Errorf("E3: removals cut user gates by %.1f%%, want ~33%%", udrop*100)
	}

	// E2: protected address-space-management code shrinks by ~10x.
	ratio := float64(i0.AddressSpaceUnits) / float64(i2.AddressSpaceUnits)
	if ratio < 6 || ratio > 14 {
		t.Errorf("E2: address-space units %d -> %d (%.1fx), want ~10x",
			i0.AddressSpaceUnits, i2.AddressSpaceUnits, ratio)
	}

	// E9: total kernel size declines monotonically across the programme.
	prev := i0
	for s := S1LinkerRemoved; s < NumStages; s++ {
		cur := inv(t, s)
		if cur.TotalUnits >= prev.TotalUnits {
			t.Errorf("E9: stage %v total units %d did not shrink from %v's %d",
				s, cur.TotalUnits, prev.Stage, prev.TotalUnits)
		}
		prev = cur
	}
}

// installMath installs a two-entry "math" program in >lib with a symbol
// table, granting everyone re access.
func installMath(t *testing.T, k *Kernel) uint64 {
	t.Helper()
	lib := mkdir(t, k, alice, "lib")
	math := &machine.Procedure{Name: "math", Entries: []machine.EntryFunc{
		func(_ *machine.ExecContext, a []uint64) ([]uint64, error) { return []uint64{a[0] + 1}, nil },
		func(_ *machine.ExecContext, a []uint64) ([]uint64, error) { return []uint64{a[0] * a[0]}, nil },
	}}
	uid, err := k.InstallProgram(alice, unc, lib, "math",
		math,
		[]linker.Symbol{{Name: "incr", Entry: 0}, {Name: "square", Entry: 1}},
		fs.CreateOptions{Label: unc, ACL: acl.New(acl.Entry{
			Who:  acl.Pattern{Person: acl.Wildcard, Project: acl.Wildcard, Tag: acl.Wildcard},
			Mode: acl.ModeRead | acl.ModeExecute,
		})})
	if err != nil {
		t.Fatalf("InstallProgram: %v", err)
	}
	return uid
}

func TestKernelLinkerEndToEndS0(t *testing.T) {
	k := newKernel(t, S0Baseline)
	installMath(t, k)
	p := userProc(t, k, alice, unc)

	// Set search rules through the gate, then snap a link through the
	// gate — all kernel-resident machinery.
	lOff, lLen, _ := p.GateString(">lib")
	if _, err := p.CallGate("hcs_$add_search_rule", lOff, lLen); err != nil {
		t.Fatalf("add_search_rule: %v", err)
	}
	sOff, sLen, _ := p.GateString("math")
	eOff, eLen, _ := p.GateString("square")
	out, err := p.CallGate("hcs_$link_snap", sOff, sLen, eOff, eLen)
	if err != nil {
		t.Fatalf("link_snap: %v", err)
	}
	seg, entry := machine.SegNo(out[0]), int(out[1])
	res, err := p.CPU.Call(seg, entry, []uint64{7})
	if err != nil || res[0] != 49 {
		t.Errorf("square(7) = %v, %v", res, err)
	}

	// The fault-driven path works too: CallSym through the kernel linker.
	out2, err := p.CPU.CallSym(SegArgs, machine.LinkRef{SegName: "math", EntryName: "incr"}, []uint64{9})
	if err != nil || out2[0] != 10 {
		t.Errorf("incr(9) via linkage fault = %v, %v", out2, err)
	}
}

func TestMalformedSymtabBlastRadius(t *testing.T) {
	// S0: the kernel linker parses a malstructured table — a supervisor
	// malfunction.
	k0 := newKernel(t, S0Baseline)
	uid := installMath(t, k0)
	if err := k0.writeSegmentWords(uid, []uint64{0xBAD}); err != nil {
		t.Fatal(err)
	}
	p0 := userProc(t, k0, alice, unc)
	lOff, lLen, _ := p0.GateString(">lib")
	if _, err := p0.CallGate("hcs_$add_search_rule", lOff, lLen); err != nil {
		t.Fatal(err)
	}
	sOff, sLen, _ := p0.GateString("math")
	eOff, eLen, _ := p0.GateString("square")
	_, err := p0.CallGate("hcs_$link_snap", sOff, sLen, eOff, eLen)
	if err == nil || !strings.Contains(err.Error(), "SUPERVISOR MALFUNCTION") {
		t.Errorf("S0 malformed symtab = %v, want supervisor malfunction", err)
	}
	if k0.SystemCrashes != 1 {
		t.Errorf("S0 system crashes = %d, want 1", k0.SystemCrashes)
	}

	// S2: the same malformed input hits the USER-RING linker; the process
	// gets an error and the supervisor is untouched.
	k2 := newKernel(t, S2RefNamesRemoved)
	uid2 := installMath(t, k2)
	if err := k2.writeSegmentWords(uid2, []uint64{0xBAD}); err != nil {
		t.Fatal(err)
	}
	p2 := userProc(t, k2, alice, unc)
	ul := linker.New(&stubEnv{k: k2, p: p2, uid: uid2}, machine.UserRing)
	p2.CPU.Linker = ul
	_, err = p2.CPU.CallSym(SegArgs, machine.LinkRef{SegName: "math", EntryName: "square"}, nil)
	if err == nil {
		t.Error("S2 malformed symtab should still fail the caller")
	}
	if strings.Contains(err.Error(), "SUPERVISOR MALFUNCTION") {
		t.Error("S2 failure must not be a supervisor malfunction")
	}
	if k2.SystemCrashes != 0 {
		t.Errorf("S2 system crashes = %d, want 0", k2.SystemCrashes)
	}
	if ul.Stats().ParseFailures != 1 {
		t.Errorf("user-ring parse failures = %d", ul.Stats().ParseFailures)
	}
}

// stubEnv is a minimal user-ring linker environment for tests: it knows
// one uid and initiates through the gate.
type stubEnv struct {
	k   *Kernel
	p   *Proc
	uid uint64
}

func (s *stubEnv) LookupSegment(name string) (uint64, error) { return s.uid, nil }
func (s *stubEnv) Initiate(uid uint64) (machine.SegNo, error) {
	out, err := s.p.CallGate("hcs_$initiate_uid", uid)
	if err != nil {
		return 0, err
	}
	return machine.SegNo(out[0]), nil
}

func TestLoginGatesS0(t *testing.T) {
	k := newKernel(t, S0Baseline)
	if err := k.Services().Users.AddUser("Schroeder", "CSR", "multics75", mls.NewLabel(mls.Secret)); err != nil {
		t.Fatal(err)
	}
	// The "initializer" process performs logins in the baseline.
	init := userProc(t, k, acl.Principal{Person: "Initializer", Project: "Sys", Tag: "z"}, mls.NewLabel(mls.TopSecret))
	pOff, pLen, _ := init.GateString("Schroeder")
	jOff, jLen, _ := init.GateString("CSR")
	wOff, wLen, _ := init.GateString("multics75")
	out, err := init.CallGate("as_$login", pOff, pLen, jOff, jLen, wOff, wLen, uint64(mls.Unclassified))
	if err != nil {
		t.Fatalf("as_$login: %v", err)
	}
	newProc, ok := k.Process(out[0])
	if !ok {
		t.Fatalf("as_$login returned process %d, which is not live", out[0])
	}
	if newProc.Principal.Person != "Schroeder" || newProc.CPU.Ring() != machine.UserRing {
		t.Errorf("logged-in process = %v in %v", newProc.Principal, newProc.CPU.Ring())
	}
	// Bad password fails.
	bOff, bLen, _ := init.GateString("wrong")
	if _, err := init.CallGate("as_$login", pOff, pLen, jOff, jLen, bOff, bLen, uint64(mls.Unclassified)); err == nil {
		t.Error("bad password should fail")
	}
	// Login gates are gone at S4.
	k4 := newKernel(t, S4LoginDemoted)
	p4 := userProc(t, k4, alice, unc)
	if _, err := p4.CallGate("as_$login", 0, 0, 0, 0, 0, 0, 0); err == nil || !strings.Contains(err.Error(), "no gate named") {
		t.Errorf("S4 as_$login = %v, want gone", err)
	}
}

func TestIOByStage(t *testing.T) {
	// Legacy: terminal attach works, network gate absent; circular buffer
	// loses under overflow.
	k0 := newKernel(t, S0Baseline)
	p0 := userProc(t, k0, alice, unc)
	out, err := p0.CallGate("ios_$tty_attach")
	if err != nil {
		t.Fatalf("tty_attach: %v", err)
	}
	dev := out[0]
	if _, err := p0.CallGate("net_$attach"); err == nil {
		t.Error("net gate should not exist at S0")
	}
	for i := uint64(0); i < 2*legacyBufferSlots; i++ {
		if err := k0.InjectInput(dev, i); err != nil {
			t.Fatal(err)
		}
	}
	lost, err := k0.DeviceLost(dev)
	if err != nil || lost != legacyBufferSlots {
		t.Errorf("legacy lost = %d, %v; want %d", lost, err, legacyBufferSlots)
	}
	got, err := p0.CallGate("ios_$tty_read", dev)
	if err != nil || got[1] != 1 {
		t.Errorf("tty_read = %v, %v", got, err)
	}

	// Consolidated: network attach works, tty gate absent; infinite buffer
	// loses nothing under the same load.
	k5 := newKernel(t, S5IOConsolidated)
	p5 := userProc(t, k5, alice, unc)
	out, err = p5.CallGate("net_$attach")
	if err != nil {
		t.Fatalf("net_$attach: %v", err)
	}
	dev5 := out[0]
	if _, err := p5.CallGate("ios_$tty_attach"); err == nil {
		t.Error("tty gate should not exist at S5")
	}
	for i := uint64(0); i < 2*legacyBufferSlots; i++ {
		if err := k5.InjectInput(dev5, i); err != nil {
			t.Fatal(err)
		}
	}
	lost, err = k5.DeviceLost(dev5)
	if err != nil || lost != 0 {
		t.Errorf("network lost = %d, %v; want 0", lost, err)
	}
	// All messages readable in order.
	for i := uint64(0); i < 2*legacyBufferSlots; i++ {
		got, err := p5.CallGate("net_$read", dev5)
		if err != nil || got[1] != 1 || got[0] != i {
			t.Fatalf("net_$read %d = %v, %v", i, got, err)
		}
	}
}

func TestDeviceOwnership(t *testing.T) {
	k := newKernel(t, S5IOConsolidated)
	pa := userProc(t, k, alice, unc)
	pb := userProc(t, k, bob, unc)
	out, err := pa.CallGate("net_$attach")
	if err != nil {
		t.Fatal(err)
	}
	dev := out[0] // a result is reused by pa's next call
	if _, err := pb.CallGate("net_$read", dev); err == nil {
		t.Error("reading another process's attachment should fail")
	}
	if _, err := pa.CallGate("net_$detach", dev); err != nil {
		t.Errorf("detach: %v", err)
	}
	if _, err := pa.CallGate("net_$read", dev); err == nil {
		t.Error("read after detach should fail")
	}
}

func TestPagedSegmentsFaultAndRecover(t *testing.T) {
	// Small memory forces page traffic through the kernel pager during
	// ordinary segment use.
	memCfg := memSmall()
	k, err := New(Config{Stage: S2RefNamesRemoved, Mem: &memCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Shutdown()
	mkdirDirect(t, k, "udd")
	p, err := k.CreateProcess("alice", alice, unc, machine.UserRing)
	if err != nil {
		t.Fatal(err)
	}
	uid, err := k.Services().Hierarchy.Create(alice, unc, fs.RootUID, "big", fs.CreateOptions{
		Kind: fs.KindSegment, Label: unc, Length: 64 * 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.CallGate("hcs_$initiate_uid", uid)
	if err != nil {
		t.Fatal(err)
	}
	seg := machine.SegNo(out[0])
	// Touch every page; with 8 core frames this must fault and evict.
	for pg := 0; pg < 20; pg++ {
		if err := p.CPU.Store(seg, pg*64, uint64(pg)); err != nil {
			t.Fatalf("store page %d: %v", pg, err)
		}
	}
	for pg := 0; pg < 20; pg++ {
		v, err := p.CPU.Load(seg, pg*64)
		if err != nil || v != uint64(pg) {
			t.Fatalf("load page %d = %d, %v", pg, v, err)
		}
	}
	if k.Services().Pager.Stats().Faults == 0 {
		t.Error("no page faults recorded under memory pressure")
	}
}

func memSmall() mem.Config {
	cfg := mem.DefaultConfig()
	cfg.CoreFrames = 8
	cfg.BulkBlocks = 16
	cfg.PageWords = 64
	return cfg
}

func mkdirDirect(t *testing.T, k *Kernel, name string) {
	t.Helper()
	if _, err := k.Services().Hierarchy.Create(alice, unc, fs.RootUID, name, fs.CreateOptions{
		Kind: fs.KindDirectory, Label: unc,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestProtectedSubsystemBrackets checks, at S0 and S6, the kernel
// facility behind user-constructed protected subsystems: a program
// installed with one gate and brackets (3,3,4) answers its gate from ring
// 4 and refuses its other entry with a gate fault, and a data segment with
// brackets (3,3,3) is out of ring 4's reach but readable from the
// program's entry. The ACLs grant everyone access; the brackets alone
// protect the data from the calling user.
func TestProtectedSubsystemBrackets(t *testing.T) {
	const sub = machine.Ring(3)
	world := func(mode acl.Mode) *acl.ACL {
		return acl.New(acl.Entry{
			Who:  acl.Pattern{Person: acl.Wildcard, Project: acl.Wildcard, Tag: acl.Wildcard},
			Mode: mode,
		})
	}
	for _, stage := range []Stage{S0Baseline, S6Restructured} {
		t.Run(stage.String(), func(t *testing.T) {
			k := newKernel(t, stage)
			dir := mkdir(t, k, alice, "subsys")
			var data machine.SegNo
			counter := &machine.Procedure{Name: "counter", Entries: []machine.EntryFunc{
				func(ctx *machine.ExecContext, _ []uint64) ([]uint64, error) {
					v, err := ctx.Load(data, 0)
					if err != nil {
						return nil, err
					}
					return []uint64{v + 1}, ctx.Store(data, 0, v+1)
				},
				func(ctx *machine.ExecContext, _ []uint64) ([]uint64, error) {
					return nil, ctx.Store(data, 0, 0)
				},
			}}
			codeUID, err := k.InstallProgram(alice, unc, dir, "counter", counter,
				[]linker.Symbol{{Name: "increment", Entry: 0}}, fs.CreateOptions{
					Label:    unc,
					ACL:      world(acl.ModeRead | acl.ModeExecute),
					Brackets: machine.Brackets{R1: sub, R2: sub, R3: machine.UserRing},
					Gates:    1,
				})
			if err != nil {
				t.Fatalf("InstallProgram: %v", err)
			}
			dataUID, err := k.Services().Hierarchy.Create(alice, unc, dir, "counter.data", fs.CreateOptions{
				Kind: fs.KindSegment, Label: unc, Length: 8,
				ACL:      world(acl.ModeRead | acl.ModeWrite),
				Brackets: machine.Brackets{R1: sub, R2: sub, R3: sub},
			})
			if err != nil {
				t.Fatalf("creating the data segment: %v", err)
			}
			p := userProc(t, k, bob, unc)
			code, err := k.initiateUID(p, codeUID)
			if err != nil {
				t.Fatal(err)
			}
			if data, err = k.initiateUID(p, dataUID); err != nil {
				t.Fatal(err)
			}

			for want := uint64(1); want <= 2; want++ {
				if out, err := p.CPU.Call(code, 0, nil); err != nil || out[0] != want {
					t.Fatalf("gate call %d = %v, %v; want %d", want, out, err, want)
				}
			}
			if _, err := p.CPU.Call(code, 1, nil); !machine.IsFaultClass(err, machine.FaultGate) {
				t.Errorf("call of the non-gate entry from ring 4 = %v, want a gate fault", err)
			}
			if _, err := p.CPU.Load(data, 0); !machine.IsFaultClass(err, machine.FaultRing) {
				t.Errorf("read of the data segment from ring 4 = %v, want a ring fault", err)
			}
			if err := p.CPU.Store(data, 0, 999); !machine.IsFaultClass(err, machine.FaultRing) {
				t.Errorf("write of the data segment from ring 4 = %v, want a ring fault", err)
			}
			if out, err := p.CPU.Call(code, 0, nil); err != nil || out[0] != 3 {
				t.Errorf("gate call after the refused probes = %v, %v; want 3", out, err)
			}
		})
	}
}
