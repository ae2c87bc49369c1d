package core

import (
	"errors"
	"testing"

	"repro/internal/acl"
	"repro/internal/fs"
	"repro/internal/linker"
	"repro/internal/machine"
	"repro/internal/sched"
)

// lifecycleStages are the stages the process-lifecycle tests run at: the
// kernel linker's stage, the first stage without kernel naming, and the
// restructured kernel that netattach's logins run on.
var lifecycleStages = []Stage{S0Baseline, S2RefNamesRemoved, S6Restructured}

// fixedSegs are the descriptors CreateProcess installs.
var fixedSegs = map[machine.SegNo]bool{SegHCS: true, SegArgs: true, SegPHCS: true}

// aliceSegment creates a directory >udd holding a segment name that
// Alice may read and write.
func aliceSegment(t *testing.T, k *Kernel, name string) uint64 {
	t.Helper()
	udd := mkdir(t, k, alice, "udd")
	uid, err := k.hier.Create(alice, unc, udd, name, fs.CreateOptions{
		Kind: fs.KindSegment, Label: unc, Length: 16,
		ACL: acl.New(acl.Entry{Who: acl.Pattern{Person: "Alice", Project: acl.Wildcard, Tag: acl.Wildcard},
			Mode: acl.ModeRead | acl.ModeWrite}),
	})
	if err != nil {
		t.Fatalf("creating %s: %v", name, err)
	}
	return uid
}

func TestDestroyedHandleFailsClosed(t *testing.T) {
	for _, stage := range lifecycleStages {
		t.Run(stage.String(), func(t *testing.T) {
			k := newKernel(t, stage)
			a := userProc(t, k, alice, unc)
			out, err := a.CallGate("hcs_$get_process_id")
			if err != nil || out[0] != a.ID() {
				t.Fatalf("hcs_$get_process_id = %v, %v; want %d", out, err, a.ID())
			}
			if got, ok := k.Process(a.ID()); !ok || got != a {
				t.Fatalf("Process(%d) = %v, %v before destroy", a.ID(), got, ok)
			}
			if err := k.DestroyProcess(a); err != nil {
				t.Fatalf("DestroyProcess: %v", err)
			}

			if _, ok := k.Process(a.ID()); ok {
				t.Errorf("Process(%d) still resolves after destroy", a.ID())
			}
			if len(k.Processes()) != 0 {
				t.Errorf("Processes() = %d live after destroying the only process", len(k.Processes()))
			}
			if a.CPU != nil || a.DS != nil || a.KST != nil {
				t.Errorf("dead handle keeps CPU %v, DS %v, KST %v", a.CPU, a.DS, a.KST)
			}
			if _, err := a.CallGate("hcs_$get_process_id"); !errors.Is(err, ErrProcessDestroyed) {
				t.Errorf("CallGate on a dead handle = %v, want ErrProcessDestroyed", err)
			}
			if _, _, err := a.GateString("x"); !errors.Is(err, ErrProcessDestroyed) {
				t.Errorf("GateString on a dead handle = %v, want ErrProcessDestroyed", err)
			}
			if _, err := a.ReadArgString(0, 1); !errors.Is(err, ErrProcessDestroyed) {
				t.Errorf("ReadArgString on a dead handle = %v, want ErrProcessDestroyed", err)
			}
			if sp := a.Run(func(*sched.ProcCtx) { t.Error("a dead handle's body ran") }); sp != nil {
				t.Errorf("Run on a dead handle spawned %q", sp.Name)
			}
			k.Services().Scheduler.Run(0)
			if err := k.DestroyProcess(a); !errors.Is(err, ErrProcessDestroyed) {
				t.Errorf("second DestroyProcess = %v, want ErrProcessDestroyed", err)
			}
			if got := k.ProcessCounts(); got != (ProcessCounts{Live: 0, Peak: 1, Spare: 1}) {
				t.Errorf("ProcessCounts = %+v, want 0 live, peak 1, 1 spare", got)
			}
			if v := counterValue(t, k, "core.procs_created"); v != 1 {
				t.Errorf("core.procs_created = %d, want 1", v)
			}
			if v := counterValue(t, k, "core.procs_destroyed"); v != 1 {
				t.Errorf("core.procs_destroyed = %d, want 1", v)
			}
			if v := k.metrics.Gauge("core.procs_live").Value(); v != 0 {
				t.Errorf("core.procs_live = %d, want 0", v)
			}
		})
	}
}

// TestRecycledProcessorKeepsNothing gives process A every kind of state a
// processor can hold — known segments, a descriptor installed without the
// KST, warm associative-memory entries, a snapped link, a linker, argument
// bytes, an event channel and a device — then destroys A and creates B on
// A's processor. B must look exactly like a fresh process, and neither
// process may reach the other's segments.
func TestRecycledProcessorKeepsNothing(t *testing.T) {
	for _, stage := range lifecycleStages {
		t.Run(stage.String(), func(t *testing.T) {
			k := newKernel(t, stage)
			mathUID := installMath(t, k)
			boxUID := aliceSegment(t, k, "box")

			a := userProc(t, k, alice, unc)
			mathSeg, err := k.initiateUID(a, mathUID)
			if err != nil {
				t.Fatalf("initiating math: %v", err)
			}
			boxSeg, err := k.initiateUID(a, boxUID)
			if err != nil {
				t.Fatalf("initiating box: %v", err)
			}
			if err := a.CPU.Store(boxSeg, 0, 0x5ec3e7); err != nil {
				t.Fatalf("store into box: %v", err)
			}
			// A descriptor outside the KST, as a forged or hand-built SDW
			// would be.
			loose := a.DS.FirstFree(boxSeg + 1)
			if err := a.DS.Set(loose, machine.SDW{Backing: machine.NewCoreBacking(8),
				Mode: machine.ModeRead | machine.ModeWrite, Brackets: machine.UserBrackets(machine.UserRing)}); err != nil {
				t.Fatal(err)
			}
			if err := a.CPU.Store(loose, 0, 1); err != nil {
				t.Fatalf("store into loose segment: %v", err)
			}
			// A snapped link: through the kernel linker where the stage
			// has one, as a user-ring linker would snap it otherwise.
			incr := machine.LinkRef{SegName: "math", EntryName: "incr"}
			if a.CPU.Linker != nil {
				lOff, lLen, _ := a.GateString(">lib")
				if _, err := a.CallGate("hcs_$add_search_rule", lOff, lLen); err != nil {
					t.Fatalf("add_search_rule: %v", err)
				}
			} else {
				a.CPU.Linker = linker.New(&kernelLinkEnv{k: k, p: a}, machine.UserRing)
				a.CPU.SnapLink(SegArgs, incr, machine.LinkTarget{Seg: mathSeg, Entry: 0})
			}
			if out, err := a.CPU.CallSym(SegArgs, incr, []uint64{9}); err != nil || out[0] != 10 {
				t.Fatalf("incr(9) through the link = %v, %v", out, err)
			}
			if _, _, err := a.GateString("secret"); err != nil {
				t.Fatal(err)
			}
			chn, err := k.createChannel(a, boxUID)
			if err != nil {
				t.Fatalf("creating event channel: %v", err)
			}
			dev, err := k.devices.attach(a, k.devices.Drivers[0].Class)
			if err != nil {
				t.Fatalf("attaching device: %v", err)
			}
			if a.CPU.Assoc().Len() == 0 || a.CPU.SnappedLinkCount(SegArgs) == 0 {
				t.Fatalf("A holds no associative-memory entry or snapped link to recycle")
			}
			cpuA, linkerA, dsA := a.CPU, a.CPU.Linker, a.DS

			if err := k.DestroyProcess(a); err != nil {
				t.Fatalf("DestroyProcess: %v", err)
			}
			if _, ok := k.channels[chn]; ok {
				t.Errorf("event channel %d outlived its owner", chn)
			}
			if _, ok := k.devices.devices[dev]; ok {
				t.Errorf("device %d outlived its owner", dev)
			}

			b := userProc(t, k, bob, unc)
			if b.CPU != cpuA || b.DS != dsA {
				t.Fatalf("B did not recycle A's processor and descriptor segment")
			}
			for seg := machine.SegNo(0); int(seg) < b.DS.Len(); seg++ {
				if b.DS.SDW(seg).InUse() != fixedSegs[seg] {
					t.Errorf("B's descriptor %d in use = %v", seg, b.DS.SDW(seg).InUse())
				}
			}
			if n := b.CPU.Assoc().Len(); n != 0 {
				t.Errorf("B starts with %d valid associative-memory entries", n)
			}
			if n := b.CPU.SnappedLinkCount(SegArgs); n != 0 {
				t.Errorf("B starts with %d snapped links", n)
			}
			if st := b.CPU.Stats(); st != (machine.Stats{}) {
				t.Errorf("B starts with stats %+v", st)
			}
			if b.CPU.Linker == linkerA {
				t.Error("B inherited A's linker")
			}
			if (b.CPU.Linker != nil) != (stage < S1LinkerRemoved) {
				t.Errorf("B's linker = %v at %v", b.CPU.Linker, stage)
			}
			if b.CPU.Ring() != machine.UserRing || b.Principal != bob {
				t.Errorf("B runs as %v in %v", b.Principal, b.CPU.Ring())
			}
			if s, err := b.ReadArgString(0, uint64(len("secret"))); err != nil || s == "secret" {
				t.Errorf("B's argument segment reads %q, %v", s, err)
			}

			// B cannot reach A's segments at A's segment numbers, by
			// reference or by the snapped link.
			for _, seg := range []machine.SegNo{mathSeg, boxSeg, loose} {
				if _, err := b.CPU.Load(seg, 0); !machine.IsFaultClass(err, machine.FaultSegment) {
					t.Errorf("B's load through A's segment %d = %v, want a segment fault", seg, err)
				}
			}
			if _, err := b.CPU.CallSym(SegArgs, incr, []uint64{9}); err == nil {
				t.Error("B called through A's snapped link")
			}
			// And A's handle cannot reach B's.
			if _, err := k.initiateUID(b, mathUID); err != nil {
				t.Fatalf("B initiating math: %v", err)
			}
			if _, err := a.CallGate("hcs_$get_process_id"); !errors.Is(err, ErrProcessDestroyed) {
				t.Errorf("A's gate call after B took its processor = %v", err)
			}
			if a.CPU != nil {
				t.Error("A's handle still reaches a processor")
			}
			if got := k.ProcessCounts(); got != (ProcessCounts{Live: 1, Peak: 1, Spare: 0}) {
				t.Errorf("ProcessCounts = %+v, want 1 live, peak 1, none spare", got)
			}
		})
	}
}

// TestRecycledProcessorCountsIntoTheKernelRegistry: a processor that
// DestroyProcess hands to CreateProcess keeps counting its
// associative-memory misses, hits and invalidations into the kernel's
// registry, the one it was built with.
func TestRecycledProcessorCountsIntoTheKernelRegistry(t *testing.T) {
	for _, stage := range []Stage{S0Baseline, S6Restructured} {
		t.Run(stage.String(), func(t *testing.T) {
			k := newKernel(t, stage)
			boxUID := aliceSegment(t, k, "box")
			a := userProc(t, k, alice, unc)
			cpuA := a.CPU
			if err := k.DestroyProcess(a); err != nil {
				t.Fatalf("DestroyProcess: %v", err)
			}
			b := userProc(t, k, alice, unc)
			if b.CPU != cpuA {
				t.Fatal("B did not recycle A's processor")
			}
			seg, err := k.initiateUID(b, boxUID)
			if err != nil {
				t.Fatalf("initiating box: %v", err)
			}
			names := []string{"machine.assoc_misses", "machine.assoc_hits", "machine.assoc_invalidations"}
			var before [3]int64
			for i, name := range names {
				before[i] = counterValue(t, k, name)
			}
			// A miss that fills the associative memory, a hit on the
			// entry, and the invalidation of that entry.
			if err := b.CPU.Store(seg, 0, 7); err != nil {
				t.Fatalf("store into box: %v", err)
			}
			if _, err := b.CPU.Load(seg, 0); err != nil {
				t.Fatalf("load from box: %v", err)
			}
			b.DS.Clear(seg)
			for i, name := range names {
				if got := counterValue(t, k, name); got != before[i]+1 {
					t.Errorf("%s = %d, want %d", name, got, before[i]+1)
				}
			}
		})
	}
}

func TestDestroyRefusesARunningBody(t *testing.T) {
	for _, stage := range lifecycleStages {
		t.Run(stage.String(), func(t *testing.T) {
			k := newKernel(t, stage)
			sch := k.Services().Scheduler
			p := userProc(t, k, alice, unc)
			release := false
			sp := p.Run(func(pc *sched.ProcCtx) {
				for !release {
					pc.Block("test: held")
				}
			})
			sch.Run(0)
			if sp.State() != sched.StateBlocked {
				t.Fatalf("body is %v, want blocked", sp.State())
			}
			before := k.ProcessCounts()
			if err := k.DestroyProcess(p); err == nil {
				t.Fatal("DestroyProcess of a running body succeeded")
			}
			if p.CPU == nil || p.DS == nil || p.KST == nil {
				t.Error("refused DestroyProcess dropped the process's state")
			}
			if got, ok := k.Process(p.ID()); !ok || got != p {
				t.Error("refused DestroyProcess removed the process from the table")
			}
			if after := k.ProcessCounts(); after != before {
				t.Errorf("ProcessCounts moved from %+v to %+v", before, after)
			}
			if out, err := p.CallGate("hcs_$get_process_id"); err != nil || out[0] != p.ID() {
				t.Errorf("gate call after a refused destroy = %v, %v", out, err)
			}

			release = true
			sch.Unblock(sp)
			sch.Run(0)
			if sp.State() != sched.StateDone {
				t.Fatalf("body is %v after release, want done", sp.State())
			}
			if err := k.DestroyProcess(p); err != nil {
				t.Errorf("DestroyProcess after the body returned: %v", err)
			}
		})
	}
}
