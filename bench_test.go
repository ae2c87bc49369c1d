package repro

// One benchmark per experiment: each regenerates the paper claim's
// workload under the Go benchmark harness, so `go test -bench=. -benchmem`
// reproduces every result with timing and allocation profiles. The
// per-iteration custom metrics report the simulation's own measures
// (virtual cycles, path lengths, loss counts) rather than wall time alone.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/audit"
	"repro/internal/blockstore"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/iosys"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mls"
	"repro/internal/pagectl"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/workload"
	"repro/multics"
)

func buildKernel(b *testing.B, stage core.Stage) *core.Kernel {
	b.Helper()
	k, err := core.New(core.Config{Stage: stage})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(k.Shutdown)
	return k
}

// BenchmarkE1GateCount regenerates the E1 table: gate counts before and
// after the linker removal.
func BenchmarkE1GateCount(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		k0, err := core.New(core.Config{Stage: core.S0Baseline})
		if err != nil {
			b.Fatal(err)
		}
		k1, err := core.New(core.Config{Stage: core.S1LinkerRemoved})
		if err != nil {
			b.Fatal(err)
		}
		i0, i1 := k0.Inventory(), k1.Inventory()
		drop = 100 * float64(i0.Gates-i1.Gates) / float64(i0.Gates)
		k0.Shutdown()
		k1.Shutdown()
	}
	b.ReportMetric(drop, "%gates-removed")
}

// BenchmarkE2AddressSpaceCode regenerates the E2 ratio.
func BenchmarkE2AddressSpaceCode(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		k0, err := core.New(core.Config{Stage: core.S0Baseline})
		if err != nil {
			b.Fatal(err)
		}
		k2, err := core.New(core.Config{Stage: core.S2RefNamesRemoved})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(k0.Inventory().AddressSpaceUnits) / float64(k2.Inventory().AddressSpaceUnits)
		k0.Shutdown()
		k2.Shutdown()
	}
	b.ReportMetric(ratio, "x-reduction")
}

// BenchmarkE3SupervisorEntries regenerates the E3 percentage.
func BenchmarkE3SupervisorEntries(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		k0, err := core.New(core.Config{Stage: core.S0Baseline})
		if err != nil {
			b.Fatal(err)
		}
		k2, err := core.New(core.Config{Stage: core.S2RefNamesRemoved})
		if err != nil {
			b.Fatal(err)
		}
		i0, i2 := k0.Inventory(), k2.Inventory()
		drop = 100 * float64(i0.UserGates-i2.UserGates) / float64(i0.UserGates)
		k0.Shutdown()
		k2.Shutdown()
	}
	b.ReportMetric(drop, "%user-entries-removed")
}

// benchCalls runs n calls of the given kind on a fresh processor and
// returns virtual cycles per call.
func benchCalls(b *testing.B, cost machine.CostModel, crossRing bool) float64 {
	b.Helper()
	ds := machine.NewDescriptorSegment(8)
	clk := machine.NewClock()
	cpu := machine.NewProcessor(ds, clk, cost, machine.UserRing, nil)
	echo := &machine.Procedure{Name: "echo", Entries: []machine.EntryFunc{
		func(_ *machine.ExecContext, a []uint64) ([]uint64, error) { return a, nil },
	}}
	brackets := machine.UserBrackets(machine.UserRing)
	gates := 0
	if crossRing {
		brackets = machine.GateBrackets(machine.KernelRing, machine.UserRing)
		gates = 1
	}
	if err := ds.Set(1, machine.SDW{Proc: echo, Mode: machine.ModeExecute, Brackets: brackets, Gates: gates}); err != nil {
		b.Fatal(err)
	}
	start := clk.Now()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Call(1, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
	return float64(clk.Now()-start) / float64(b.N)
}

// BenchmarkE4IntraRingCall645 measures intra-ring call cost on the 645.
func BenchmarkE4IntraRingCall645(b *testing.B) {
	b.ReportMetric(benchCalls(b, machine.Model645(), false), "vcycles/call")
}

// BenchmarkE4CrossRingCall645 measures cross-ring call cost on the 645.
func BenchmarkE4CrossRingCall645(b *testing.B) {
	b.ReportMetric(benchCalls(b, machine.Model645(), true), "vcycles/call")
}

// BenchmarkE4IntraRingCall6180 measures intra-ring call cost on the 6180.
func BenchmarkE4IntraRingCall6180(b *testing.B) {
	b.ReportMetric(benchCalls(b, machine.Model6180(), false), "vcycles/call")
}

// BenchmarkE4CrossRingCall6180 measures cross-ring call cost on the 6180.
func BenchmarkE4CrossRingCall6180(b *testing.B) {
	b.ReportMetric(benchCalls(b, machine.Model6180(), true), "vcycles/call")
}

// BenchmarkE5SequentialPager drives the old page-control design through the
// standard overcommitted trace.
func BenchmarkE5SequentialPager(b *testing.B) {
	var st float64
	for i := 0; i < b.N; i++ {
		stats, _, _ := experiments.PageFaultWorkload(false, 64, 400)
		st = float64(stats.FaulterSteps) / float64(stats.Faults)
	}
	b.ReportMetric(st, "faulter-ops/fault")
}

// BenchmarkE5ParallelPager drives the new page-control design through the
// same trace.
func BenchmarkE5ParallelPager(b *testing.B) {
	var st float64
	for i := 0; i < b.N; i++ {
		stats, _, _ := experiments.PageFaultWorkload(true, 64, 400)
		st = float64(stats.FaulterSteps) / float64(stats.Faults)
	}
	b.ReportMetric(st, "faulter-ops/fault")
}

// BenchmarkE6CircularBuffer measures message loss under the overload
// workload on the old circular buffer.
func BenchmarkE6CircularBuffer(b *testing.B) {
	var lost float64
	for i := 0; i < b.N; i++ {
		buf, err := iosys.NewCircularBuffer(16)
		if err != nil {
			b.Fatal(err)
		}
		_, l := experiments.BufferWorkload(buf, 2000, 24, 8)
		lost = float64(l)
	}
	b.ReportMetric(lost, "messages-lost")
}

// BenchmarkE6InfiniteBuffer measures the same workload on the VM-backed
// buffer.
func BenchmarkE6InfiniteBuffer(b *testing.B) {
	var lost float64
	for i := 0; i < b.N; i++ {
		cfg := mem.DefaultConfig()
		cfg.CoreFrames = 1024
		store, err := mem.NewStore(cfg)
		if err != nil {
			b.Fatal(err)
		}
		buf, err := iosys.NewInfiniteBuffer(store, 1)
		if err != nil {
			b.Fatal(err)
		}
		_, l := experiments.BufferWorkload(buf, 2000, 24, 8)
		lost = float64(l)
	}
	b.ReportMetric(lost, "messages-lost")
}

// BenchmarkE7PolicyFaultInjection runs the adversarial policy rounds.
func BenchmarkE7PolicyFaultInjection(b *testing.B) {
	var unauthorized float64
	for i := 0; i < b.N; i++ {
		rep := experiments.E7PolicyFaultInjection()
		if !rep.Pass {
			b.Fatalf("E7 failed: %s", rep.Measured)
		}
		unauthorized = 0
	}
	b.ReportMetric(unauthorized, "unauthorized-accesses")
}

// BenchmarkE8BorrowedInterrupts measures cycles stolen from user processes
// by the old interceptor.
func BenchmarkE8BorrowedInterrupts(b *testing.B) {
	var stolen float64
	for i := 0; i < b.N; i++ {
		st, _ := experiments.InterruptWorkload(false, 120)
		stolen = float64(st.StolenCycles)
	}
	b.ReportMetric(stolen, "stolen-vcycles")
}

// BenchmarkE8ProcessInterrupts measures the same workload under the new
// dedicated-process design.
func BenchmarkE8ProcessInterrupts(b *testing.B) {
	var stolen float64
	for i := 0; i < b.N; i++ {
		st, _ := experiments.InterruptWorkload(true, 120)
		stolen = float64(st.StolenCycles)
	}
	b.ReportMetric(stolen, "stolen-vcycles")
}

// BenchmarkE9KernelInventory builds every stage and reports the S0->S6
// shrinkage.
func BenchmarkE9KernelInventory(b *testing.B) {
	var shrink float64
	for i := 0; i < b.N; i++ {
		var first, last int
		for s := core.S0Baseline; s < core.NumStages; s++ {
			k, err := core.New(core.Config{Stage: s})
			if err != nil {
				b.Fatal(err)
			}
			inv := k.Inventory()
			if s == core.S0Baseline {
				first = inv.TotalUnits
			}
			last = inv.TotalUnits
			k.Shutdown()
		}
		shrink = 100 * float64(first-last) / float64(first)
	}
	b.ReportMetric(shrink, "%kernel-shrinkage")
}

// BenchmarkE10Penetration runs the attack catalog against the S2 kernel and
// reports supervisor compromises (must be zero).
func BenchmarkE10Penetration(b *testing.B) {
	// Shut each kernel down inside the loop (buildKernel defers to
	// b.Cleanup, which would keep thousands of kernels live until the
	// benchmark ends — the growing heap made later iterations slower
	// and ns/op bimodal); park the GC like BenchmarkE19JournaledPageOut
	// so the bench.sh regression gate compares the work, not the
	// collector's phase.
	defer debug.SetGCPercent(debug.SetGCPercent(1000))
	var compromises float64
	for i := 0; i < b.N; i++ {
		k, err := core.New(core.Config{Stage: core.S2RefNamesRemoved})
		if err != nil {
			b.Fatal(err)
		}
		suite, err := audit.NewSuite(k)
		if err != nil {
			k.Shutdown()
			b.Fatal(err)
		}
		sum := audit.Summary(suite.Run())
		compromises = float64(sum[audit.SupervisorCompromise])
		k.Shutdown()
	}
	b.ReportMetric(compromises, "compromises")
}

// BenchmarkE11MLSPartitioning checks the full lattice flow matrix.
func BenchmarkE11MLSPartitioning(b *testing.B) {
	var flows float64
	for i := 0; i < b.N; i++ {
		rep := experiments.E11MLSPartitioning()
		if !rep.Pass {
			b.Fatalf("E11 failed: %s", rep.Measured)
		}
		flows = 0
	}
	b.ReportMetric(flows, "cross-compartment-flows")
}

// BenchmarkE12BootstrapInit measures the privileged boot work of the old
// initialization pattern.
func BenchmarkE12BootstrapInit(b *testing.B) {
	var priv float64
	for i := 0; i < b.N; i++ {
		_, rep, err := boot.Bootstrap(boot.StandardSteps(), machine.NewClock())
		if err != nil {
			b.Fatal(err)
		}
		priv = float64(rep.PrivilegedCycles)
	}
	b.ReportMetric(priv, "priv-boot-vcycles")
}

// BenchmarkE12ImageInit measures the privileged boot work of the
// memory-image pattern.
func BenchmarkE12ImageInit(b *testing.B) {
	im, err := boot.BuildImage(boot.StandardSteps(), machine.NewClock())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var priv float64
	for i := 0; i < b.N; i++ {
		_, rep, err := boot.LoadImage(im, machine.NewClock(), boot.ImageLoadCycles)
		if err != nil {
			b.Fatal(err)
		}
		priv = float64(rep.PrivilegedCycles)
	}
	b.ReportMetric(priv, "priv-boot-vcycles")
}

// BenchmarkE13NetAttachThroughput replays a scripted session storm
// through the consolidated attachment front-end and reports the
// simulation's own throughput (requests per thousand virtual cycles)
// alongside wall time.
func BenchmarkE13NetAttachThroughput(b *testing.B) {
	sc := workload.NewScenario("bench-e13", 75).
		Mix(workload.Stormer(24, 24, 0), 1).
		Sessions(32)
	var throughput, lost float64
	for i := 0; i < b.N; i++ {
		rep, err := workload.RunAt(multics.StageIOConsolidated, sc)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Stats.InputLost != 0 || rep.Stats.ReplyLost != 0 {
			b.Fatalf("consolidated path lost traffic: %+v", rep.Stats)
		}
		throughput = rep.Throughput
		lost = float64(rep.Stats.InputLost + rep.Stats.ReplyLost)
	}
	b.ReportMetric(throughput, "req/kvcycle")
	b.ReportMetric(lost, "lost")
}

// BenchmarkE14AssocMemory measures cross-ring gate calls on the 6180 with
// the associative memory enabled and disabled; the vcycles/call metric is
// the E14 claim (the cache removes the per-call descriptor walk), and wall
// time shows the simulator-side saving.
func BenchmarkE14AssocMemory(b *testing.B) {
	run := func(b *testing.B, assocOn bool) {
		ds := machine.NewDescriptorSegment(8)
		clk := machine.NewClock()
		cpu := machine.NewProcessor(ds, clk, machine.Model6180(), machine.UserRing, nil)
		cpu.SetAssocEnabled(assocOn)
		echo := &machine.Procedure{Name: "echo", Entries: []machine.EntryFunc{
			func(_ *machine.ExecContext, a []uint64) ([]uint64, error) { return a, nil },
		}}
		if err := ds.Set(2, machine.SDW{Proc: echo, Mode: machine.ModeExecute,
			Brackets: machine.GateBrackets(machine.KernelRing, machine.UserRing), Gates: 1}); err != nil {
			b.Fatal(err)
		}
		start := clk.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cpu.Call(2, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(clk.Now()-start)/float64(b.N), "vcycles/call")
	}
	b.Run("cache-on", func(b *testing.B) { run(b, true) })
	b.Run("cache-off", func(b *testing.B) { run(b, false) })
}

// --- Ablations (the paper's footnote 7: the performance cost of security) ---

// BenchmarkAblationPolicyInKernel measures victim decisions with the clock
// policy running as ordinary ring-0 code.
func BenchmarkAblationPolicyInKernel(b *testing.B) {
	cfg := mem.DefaultConfig()
	cfg.PageWords = 8
	cfg.CoreFrames = 16
	cfg.BulkBlocks = 64
	store, err := mem.NewStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := store.CreateSegment(1, 12*cfg.PageWords); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, _, err := store.PageIn(mem.PageID{SegUID: 1, Index: i}); err != nil {
			b.Fatal(err)
		}
	}
	var pol pagectl.ClockPolicy
	clk := machine.NewClock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(int64(experiments.EvictableFrames(store)))
		if _, err := pol.ChooseVictim(store); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(clk.Now())/float64(b.N), "vcycles/decision")
}

// BenchmarkAblationPolicyInRing measures the same decisions made by policy
// code executing in the policy ring through the mechanism gates.
func BenchmarkAblationPolicyInRing(b *testing.B) {
	cfg := mem.DefaultConfig()
	cfg.PageWords = 8
	cfg.CoreFrames = 16
	cfg.BulkBlocks = 64
	store, err := mem.NewStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := store.CreateSegment(1, 12*cfg.PageWords); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, _, err := store.PageIn(mem.PageID{SegUID: 1, Index: i}); err != nil {
			b.Fatal(err)
		}
	}
	clk := machine.NewClock()
	dom, err := policy.NewDomain(clk, machine.Model6180(), policy.NewMechanism(store), policy.ClockPolicyCode())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dom.Choose(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(clk.Now())/float64(b.N), "vcycles/decision")
}

// benchGateDispatch drives one niladic user gate through the full spine
// — the gatekeeper's counting, validation, classification and tracing,
// then the ring crossing — on the cached-SDW hit path, and returns virtual
// cycles per call and heap allocations per call (by testing.AllocsPerRun).
// Only the machine's ring-crossing cost model advances the clock; the
// gatekeeper itself charges nothing, so trace-on and trace-off must report the same
// vcycles/call (the ≤1-vcycle overhead budget on the 6180 fast path holds
// with margin zero).
func benchGateDispatch(b *testing.B, traceOn bool) (vcycles, allocs float64) {
	b.Helper()
	k := buildKernel(b, core.S6Restructured)
	k.Services().Trace.SetEnabled(traceOn)
	p, err := k.CreateProcess("bench", acl.Principal{Person: "Bench", Project: "Perf", Tag: "a"},
		mls.NewLabel(mls.Unclassified), machine.UserRing)
	if err != nil {
		b.Fatal(err)
	}
	idx, ok := k.Services().UserGates.EntryIndex("hcs_$get_system_info")
	if !ok {
		b.Fatal("no gate hcs_$get_system_info")
	}
	call := func() {
		if _, err := p.CPU.Call(core.SegHCS, idx, nil); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the descriptor path so every timed call is an SDW cache hit.
	call()
	clk := k.Services().Clock
	start := clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
	b.StopTimer()
	vcycles = float64(clk.Now()-start) / float64(b.N)
	return vcycles, testing.AllocsPerRun(2000, call)
}

// BenchmarkGateDispatch measures the instrumented kernel-crossing fast
// path with the trace ring enabled and disabled. A traced call must
// allocate nothing and cost the vcycles of an untraced one.
func BenchmarkGateDispatch(b *testing.B) {
	var on, off, onAllocs float64
	b.Run("trace-on", func(b *testing.B) {
		on, onAllocs = benchGateDispatch(b, true)
		b.ReportMetric(on, "vcycles/call")
		b.ReportMetric(onAllocs, "allocs/call")
	})
	b.Run("trace-off", func(b *testing.B) {
		var allocs float64
		off, allocs = benchGateDispatch(b, false)
		b.ReportMetric(off, "vcycles/call")
		b.ReportMetric(allocs, "allocs/call")
	})
	if on != off {
		b.Fatalf("trace ring changed the virtual cost of a gate call: on %.1f, off %.1f", on, off)
	}
	if onAllocs != 0 {
		b.Fatalf("traced gate dispatch allocates %.1f objects/call, want 0", onAllocs)
	}
}

// BenchmarkSchedSwitch times one process switch: each iteration is one
// scheduler step that resumes a process, which yields straight back, so
// ns/op is one resume/yield round trip through dispatch.
func BenchmarkSchedSwitch(b *testing.B) {
	s := sched.New(machine.NewClock(), nil)
	b.Cleanup(s.Shutdown)
	s.AddVP("cpu", false)
	s.Spawn("yielder", func(pc *sched.ProcCtx) {
		for {
			pc.Yield()
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSchedSleep times one sleep with nothing else runnable: a single
// Run drives one process that sleeps 10 vcycles in a loop until the clock
// reaches 10 vcycles per iteration, so ns/op and allocs/op are per sleep
// and its wakeup.
func BenchmarkSchedSleep(b *testing.B) {
	s := sched.New(machine.NewClock(), nil)
	b.Cleanup(s.Shutdown)
	s.AddVP("cpu", false)
	s.Spawn("sleeper", func(pc *sched.ProcCtx) {
		for {
			pc.Sleep(10)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(10 * int64(b.N))
}

// BenchmarkLoginLogout times one network session's life on an S6 system:
// each iteration dials (login through the ring-2 answering service, the
// attach gate) and closes (the detach gate, process destruction). It is
// the churn step of perfbench's office workload, outside perfbench. Run it
// at a fixed count (-benchtime=5000x) when comparing with a kernel that
// keeps every process, whose cost grows with the iterations already run.
func BenchmarkLoginLogout(b *testing.B) {
	sys, err := multics.New(multics.StageRestructured)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Shutdown)
	if err := sys.AddUser("Churn", "Net", "churn pw", multics.Secret); err != nil {
		b.Fatal(err)
	}
	session := func() {
		c, err := sys.Attach("Churn", "Net", "churn pw", multics.Unclassified)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
	session() // starts the front-end
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session()
	}
}

// BenchmarkTreeOps times the reads of perfbench's tree workload on a
// small S6 tree, outside perfbench: each iteration opens, reads and closes
// one of three segments, through the user-ring walk and three gate round
// trips, then lists their directory. The walk's directories are cached
// after the warm-up, as they are in the tree workload's timed phase.
func BenchmarkTreeOps(b *testing.B) {
	sys, err := multics.New(multics.StageRestructured)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Shutdown)
	if err := sys.AddUser("Reader", "Tree", "reader pw", multics.Unclassified); err != nil {
		b.Fatal(err)
	}
	sess, err := sys.Login("Reader", "Tree", "reader pw", multics.Unclassified)
	if err != nil {
		b.Fatal(err)
	}
	paths := []string{">tree>d>alpha", ">tree>d>beta", ">tree>d>gamma"}
	for _, d := range []string{">tree", ">tree>d"} {
		if err := sess.MakeDir(d); err != nil {
			b.Fatal(err)
		}
	}
	for i, path := range paths {
		if err := sess.CreateSegment(path, 64); err != nil {
			b.Fatal(err)
		}
		seg, err := sess.Open(path, "")
		if err != nil {
			b.Fatal(err)
		}
		if err := seg.WriteWord(i, uint64(100+i)); err != nil {
			b.Fatal(err)
		}
		if err := seg.Close(); err != nil {
			b.Fatal(err)
		}
	}
	clk := sys.Kernel.Services().Clock
	op := func(i int) {
		j := i % len(paths)
		seg, err := sess.Open(paths[j], "")
		if err != nil {
			b.Fatal(err)
		}
		if v, err := seg.ReadWord(j); err != nil || v != uint64(100+j) {
			b.Fatalf("read %s: %d, %v", paths[j], v, err)
		}
		if err := seg.Close(); err != nil {
			b.Fatal(err)
		}
		names, err := sess.List(">tree>d")
		if err != nil || len(names) != len(paths) {
			b.Fatalf("list: %v, %v", names, err)
		}
	}
	for i := range paths {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := clk.Now()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.ReportMetric(float64(clk.Now()-start)/float64(b.N), "vcycles/op")
}

// BenchmarkAblationWaterMarks sweeps the parallel pager's free-pool tuning
// knob over the standard trace (one full trace per iteration).
func BenchmarkAblationWaterMarks(b *testing.B) {
	for _, wm := range []struct {
		name        string
		low, target int
	}{
		{"shallow-1-2", 1, 2},
		{"default-2-4", 2, 4},
		{"deep-4-8", 4, 8},
	} {
		b.Run(wm.name, func(b *testing.B) {
			var wait float64
			for i := 0; i < b.N; i++ {
				stats, _, _ := experiments.PageFaultWorkloadWithMarks(wm.low, wm.target)
				wait = float64(stats.WaitCycles) / float64(stats.Faults)
			}
			b.ReportMetric(wait, "vcycles-wait/fault")
		})
	}
}

// BenchmarkE15FaultStorm replays the standard session storm under the
// deterministic fault plane at increasing uniform fault rates. The
// rate-0.0% sub-benchmark is the zero-fault baseline scripts/bench.sh
// archives; the survival and vcycle metrics quantify what the recovery
// paths (page-in retry, drain-and-requeue, salvager) cost when faults
// are landing.
func BenchmarkE15FaultStorm(b *testing.B) {
	for _, rate := range []float64{0, 0.001, 0.01} {
		b.Run(fmt.Sprintf("rate-%.1f%%", rate*100), func(b *testing.B) {
			spec := faults.UniformSpec(7501, rate, 6)
			sc := workload.NewScenario("bench-e15", 75).
				Mix(workload.Stormer(12, 12, 0), 1).
				Sessions(32).
				Faults(&spec)
			var survival, cycles, injected float64
			for i := 0; i < b.N; i++ {
				sys, err := workload.Boot(multics.StageIOConsolidated, sc)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := workload.Run(sys, sc)
				if err != nil {
					sys.Shutdown()
					b.Fatal(err)
				}
				svc := sys.Kernel.Services()
				if _, _, err := svc.Faults.CrashAndSalvage(svc.Hierarchy); err != nil {
					sys.Shutdown()
					b.Fatal(err)
				}
				survival = 100 * (1 - float64(rep.Failed)/float64(rep.Conns))
				cycles = float64(rep.Cycles)
				injected = float64(svc.Faults.Counts().Total())
				sys.Shutdown()
			}
			if survival < 99 {
				b.Fatalf("survival %.1f%% below the 99%% floor", survival)
			}
			b.ReportMetric(survival, "%survival")
			b.ReportMetric(cycles, "vcycles")
			b.ReportMetric(injected, "injected")
		})
	}
}

// benchMetricsOverhead drives the same cached-SDW gate-call fast path as
// benchGateDispatch with the unified metrics registry enabled or
// disabled, and returns virtual cycles per call plus the exported
// aggregate of the run. Metrics recording never touches the clock, so
// both arms must report identical vcycles/call — the ≤1% overhead
// budget holds with margin zero, by construction.
func benchMetricsOverhead(b *testing.B, metricsOn bool) (float64, []byte) {
	b.Helper()
	k := buildKernel(b, core.S6Restructured)
	svc := k.Services()
	svc.Metrics.SetEnabled(metricsOn)
	p, err := k.CreateProcess("bench", acl.Principal{Person: "Bench", Project: "Perf", Tag: "a"},
		mls.NewLabel(mls.Unclassified), machine.UserRing)
	if err != nil {
		b.Fatal(err)
	}
	idx, ok := svc.UserGates.EntryIndex("hcs_$get_system_info")
	if !ok {
		b.Fatal("no gate hcs_$get_system_info")
	}
	if _, err := p.CPU.Call(core.SegHCS, idx, nil); err != nil {
		b.Fatal(err)
	}
	clk := svc.Clock
	start := clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.CPU.Call(core.SegHCS, idx, nil); err != nil {
			b.Fatal(err)
		}
	}
	cycles := float64(clk.Now()-start) / float64(b.N)
	snap := svc.Metrics.Snapshot().Compact()
	snap.At = 0
	return cycles, snap.JSON()
}

// BenchmarkE16MetricsOverhead measures the cost of the unified metrics
// plane on the hottest path in the system: with every gate, machine, and
// memory counter live versus the registry disabled. The acceptance bar
// is ≤1% virtual-cycle overhead; the design delivers exactly 0.
func BenchmarkE16MetricsOverhead(b *testing.B) {
	var on, off float64
	b.Run("metrics-on", func(b *testing.B) {
		on, _ = benchMetricsOverhead(b, true)
		b.ReportMetric(on, "vcycles/call")
	})
	b.Run("metrics-off", func(b *testing.B) {
		off, _ = benchMetricsOverhead(b, false)
		b.ReportMetric(off, "vcycles/call")
	})
	if off == 0 {
		b.Fatal("zero-cost gate call: cost model broken")
	}
	if over := (on - off) / off; over > 0.01 || over < -0.01 {
		b.Fatalf("metrics plane changed the virtual cost of a gate call by %.2f%%: on %.1f, off %.1f",
			over*100, on, off)
	}
	b.ReportMetric((on-off)/off*100, "overhead-%")
}

// BenchmarkE17FleetScaling boots a fleet per iteration and replays the
// E17 storm: the same 32-session script sharded across 1, 4, and 16
// kernels, plus the 16-kernel arm under a per-burst migration storm.
// Throughput (requests per thousand virtual cycles of the busiest
// kernel) must rise with the kernel count, every session must survive,
// and the session digest must match the single-kernel run — scaling is
// only interesting if the transcripts prove nobody noticed.
func BenchmarkE17FleetScaling(b *testing.B) {
	const benchConns = 32
	wl := func() *workload.Scenario {
		return workload.NewScenario("bench-e17", 75).
			Mix(workload.Stormer(8, 2, benchConns), 1).
			Sessions(benchConns)
	}
	var baseline string
	for _, arm := range []struct {
		name         string
		kernels      int
		migrateEvery int
	}{
		{"kernels-1", 1, 0},
		{"kernels-4", 4, 0},
		{"kernels-16", 16, 0},
		{"kernels-16-migrating", 16, 1},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var rep *fleet.RunReport
			for i := 0; i < b.N; i++ {
				f, err := fleet.New(fleet.Config{
					Kernels: arm.kernels, Workers: 8,
					MaxConns: benchConns, MemFrames: 4096,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err = fleet.Run(f, fleet.RunConfig{
					Scenario: wl(), MigrateEvery: arm.migrateEvery,
				})
				f.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			if rep.Failed != 0 || rep.MigrationFailures != 0 {
				b.Fatalf("dead sessions %d, failed migrations %d",
					rep.Failed, rep.MigrationFailures)
			}
			if baseline == "" {
				baseline = rep.SessionDigest
			} else if rep.SessionDigest != baseline {
				b.Fatalf("session digest diverged: %s vs %s",
					rep.SessionDigest, baseline)
			}
			b.ReportMetric(rep.Throughput, "req/kcy")
			b.ReportMetric(float64(rep.MaxCycles), "max-vcycles")
			b.ReportMetric(float64(rep.Migrations), "migrations")
		})
	}
}

// e19PageOutBatch drives one fixed page-out storm: each page is
// materialized in core, written a distinct word, and evicted straight to
// the disk level, where the backing store absorbs the write. Every batch
// pushes the same page population through the same path; only the
// backing differs between arms. Returns the batch's wall time.
func e19PageOutBatch(b *testing.B, backing mem.BackingStore) time.Duration {
	b.Helper()
	const pages = 4096
	cfg := mem.DefaultConfig()
	cfg.CoreFrames = 64
	cfg.BulkBlocks = 64
	cfg.Backing = backing
	store, err := mem.NewStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := store.CreateSegment(1, pages*cfg.PageWords); err != nil {
		b.Fatal(err)
	}
	t0 := time.Now()
	for p := 0; p < pages; p++ {
		f, err := store.MaterializeZero(mem.PageID{SegUID: 1, Index: p})
		if err != nil {
			b.Fatal(err)
		}
		if err := store.WriteWord(f, p%cfg.PageWords, uint64(p)*0x9E3779B97F4A7C15); err != nil {
			b.Fatal(err)
		}
		if _, err := store.EvictToDisk(f); err != nil {
			b.Fatal(err)
		}
	}
	return time.Since(t0)
}

// BenchmarkE19JournaledPageOut prices the durability the E19 recovery
// story buys: the same eviction storm against the volatile in-memory
// backing and against the content-addressed journaled blockstore. The
// journaled arm hashes, frames, and CRCs every evicted page into the
// journal; the acceptance bar is that the whole page-out path stays
// within 2x of volatile, asserted on a fixed batch with min-of-rounds
// so the claim does not depend on -benchtime or a load spike. The
// journaled arm also reports the journal bytes it appends per page-out:
// each page holds one non-zero word, so nearly all of a page-out's
// record is framing.
func BenchmarkE19JournaledPageOut(b *testing.B) {
	newJournaled := func() mem.BackingStore {
		bs, _, err := blockstore.Open(blockstore.Config{Media: blockstore.NewMemMedia()})
		if err != nil {
			b.Fatal(err)
		}
		return bs
	}
	// Keep background GC cycles (triggered by the journaled arm's own
	// retained heap) from stealing CPU mid-batch, and let min-of-rounds
	// absorb what remains.
	defer debug.SetGCPercent(debug.SetGCPercent(1000))
	e19PageOutBatch(b, mem.NewMemStore())
	e19PageOutBatch(b, newJournaled())
	volatileBest, journaledBest := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < 5; r++ {
		runtime.GC()
		if d := e19PageOutBatch(b, mem.NewMemStore()); d < volatileBest {
			volatileBest = d
		}
		runtime.GC()
		if d := e19PageOutBatch(b, newJournaled()); d < journaledBest {
			journaledBest = d
		}
	}
	ratio := float64(journaledBest) / float64(volatileBest)
	if ratio > 2 {
		b.Fatalf("journaled page-out %.2fx of volatile (want <= 2x): %v vs %v",
			ratio, journaledBest, volatileBest)
	}
	for _, arm := range []struct {
		name    string
		backing func() mem.BackingStore
	}{
		{"volatile", func() mem.BackingStore { return mem.NewMemStore() }},
		{"journaled", newJournaled},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var d time.Duration
			var backing mem.BackingStore
			for i := 0; i < b.N; i++ {
				backing = arm.backing()
				d = e19PageOutBatch(b, backing)
			}
			b.ReportMetric(float64(d.Nanoseconds())/4096, "ns/page-out")
			b.ReportMetric(ratio, "journaled-vs-volatile-x")
			if bs, ok := backing.(*blockstore.Store); ok {
				b.ReportMetric(float64(bs.StoreStats().BytesAppended)/4096, "journal-B/page-out")
			}
		})
	}
}
