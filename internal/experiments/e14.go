package experiments

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/workload"
	"repro/multics"
)

// e14GateCallCycles measures steady-state virtual cycles per cross-ring
// gate call on the 6180 model, with the associative memory on or off.
// For the hit-rate columns it also returns the processor's
// associative-memory hits and misses, read from the registry it builds
// the processor with.
func e14GateCallCycles(assocOn bool, calls int) (cycles, hits, misses int64) {
	reg := metrics.New()
	ds := machine.NewDescriptorSegment(8)
	clk := machine.NewClock()
	cpu := machine.NewProcessor(ds, clk, machine.Model6180(), machine.UserRing, reg)
	cpu.SetAssocEnabled(assocOn)
	echo := &machine.Procedure{Name: "echo", Entries: []machine.EntryFunc{
		func(_ *machine.ExecContext, a []uint64) ([]uint64, error) { return a, nil },
	}}
	mustSet(ds, 2, machine.SDW{Proc: echo, Mode: machine.ModeExecute,
		Brackets: machine.GateBrackets(machine.KernelRing, machine.UserRing), Gates: 1})
	start := clk.Now()
	for i := 0; i < calls; i++ {
		if _, err := cpu.Call(2, 0, nil); err != nil {
			panic(err)
		}
	}
	return (clk.Now() - start) / int64(calls),
		reg.Counter("machine.assoc_hits").Value(), reg.Counter("machine.assoc_misses").Value()
}

// e14Revoked proves the security-correctness constraint: after warming the
// cache through a readable descriptor, revoking it must make the very next
// reference fault — no access is ever granted from the stale cached entry.
func e14Revoked() bool {
	ds := machine.NewDescriptorSegment(8)
	cpu := machine.NewProcessor(ds, machine.NewClock(), machine.Model6180(), machine.UserRing, nil)
	mustSet(ds, 3, machine.SDW{Backing: machine.NewCoreBacking(8), Mode: machine.ModeRead,
		Brackets: machine.UserBrackets(machine.UserRing)})
	if _, err := cpu.Load(3, 0); err != nil {
		return false // should have been readable
	}
	if _, err := cpu.Load(3, 0); err != nil {
		return false // cached read should still work
	}
	mustSet(ds, 3, machine.SDW{Backing: machine.NewCoreBacking(8), Mode: 0,
		Brackets: machine.UserBrackets(machine.UserRing)})
	_, err := cpu.Load(3, 0)
	return err != nil // revoked: MUST fault
}

// E14HotPathPerformance measures the associative memory's effect on
// gate-call cost (with the mandatory invalidation proven) and reports a
// seeded replay's kernel counters.
func E14HotPathPerformance() Report {
	const calls = 1000
	offCycles, _, _ := e14GateCallCycles(false, calls)
	onCycles, onHits, onMisses := e14GateCallCycles(true, calls)
	revokedBlocked := e14Revoked()

	// One seeded replay; the kernel counters come from its registry.
	sc := workload.NewScenario("e14-storm", 75).
		Mix(workload.Stormer(12, 12, 0), 1).
		Sessions(16)
	sys, err := workload.Boot(multics.StageIOConsolidated, sc)
	if err != nil {
		panic(err)
	}
	rep, err := workload.Run(sys, sc)
	if err != nil {
		panic(err)
	}
	reg := sys.Kernel.Services().Metrics
	assocHits := reg.Counter("machine.assoc_hits").Value()
	assocMisses := reg.Counter("machine.assoc_misses").Value()
	assocInval := reg.Counter("machine.assoc_invalidations").Value()
	frameSteals := reg.Counter("mem.frame_steals").Value()
	blockSteals := reg.Counter("mem.block_steals").Value()
	zeroFills := reg.Counter("mem.zero_fills").Value()
	gates := sys.Kernel.Inventory().Gates
	sys.Shutdown()

	var b strings.Builder
	fmt.Fprintf(&b, "%-38s %14s %10s\n", "gate call path (6180)", "vcycles/call", "hit rate")
	fmt.Fprintf(&b, "%-38s %14d %10s\n", "descriptor walk every call (cache off)", offCycles, "-")
	hitRate := float64(onHits) / float64(onHits+onMisses)
	fmt.Fprintf(&b, "%-38s %14d %9.1f%%\n", "associative memory (cache on)", onCycles, 100*hitRate)
	fmt.Fprintf(&b, "revoked SDW honored from cache: %v (must be false)\n", !revokedBlocked)
	fmt.Fprintf(&b, "replay digest: %s\n", rep.Digest[:16])
	assocRate := 0.0
	if assocHits+assocMisses > 0 {
		assocRate = float64(assocHits) / float64(assocHits+assocMisses)
	}
	fmt.Fprintf(&b, "kernel counters (replay): gates %d  assoc %d/%d (%.1f%% hit, %d invalidations)\n",
		gates, assocHits, assocMisses, 100*assocRate, assocInval)
	fmt.Fprintf(&b, "store counters: frame steals %d  block steals %d  zero-fills %d\n",
		frameSteals, blockSteals, zeroFills)

	pass := onCycles < offCycles && revokedBlocked &&
		onHits > onMisses
	return Report{
		PaperClaim: "ring checks are cheap because the 6180 caches SDWs in an associative memory instead of " +
			"re-walking the descriptor segment; the cache is flushed whenever a descriptor changes",
		Table: b.String(),
		Measured: fmt.Sprintf("gate call %d -> %d vcycles with cache (%.1f%% hits); revocation enforced",
			offCycles, onCycles, 100*hitRate),
		Pass: pass,
	}
}
