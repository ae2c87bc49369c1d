// Package experiments regenerates every quantitative claim in the paper's
// evaluation narrative (the paper has no numbered tables; its claims are
// in-line). Each experiment builds the relevant kernel configurations,
// runs the workload, and renders the measured table next to the paper's
// claim. cmd/experiments prints them; bench_test.go wraps each in a
// testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagectl"
	"repro/internal/sched"
)

// Report is one experiment's regenerated result.
type Report struct {
	// ID and Title are the registry's (see Experiment.Run); an
	// experiment function called directly leaves them empty.
	ID    string
	Title string
	// PaperClaim quotes or paraphrases the paper.
	PaperClaim string
	// Table is the regenerated result table (plain text).
	Table string
	// Measured is the headline measured value.
	Measured string
	// Pass reports whether the measured shape matches the claim.
	Pass bool
}

// Format renders a report for the terminal.
func (r Report) Format() string {
	var b strings.Builder
	status := "MATCH"
	if !r.Pass {
		status = "MISMATCH"
	}
	fmt.Fprintf(&b, "=== %s: %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "paper:    %s\n", r.PaperClaim)
	fmt.Fprintf(&b, "measured: %s\n", r.Measured)
	if r.Table != "" {
		b.WriteString(indent(r.Table))
	}
	return b.String()
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "    " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// newKernel builds a kernel, panicking on configuration errors (experiment
// configurations are fixed and correct by construction).
func newKernel(stage core.Stage) *core.Kernel {
	k, err := core.New(core.Config{Stage: stage})
	if err != nil {
		panic(fmt.Sprintf("experiments: building %v: %v", stage, err))
	}
	return k
}

// E1GateCount reproduces: linker removal "eliminated 10% of the gate entry
// points into the supervisor".
func E1GateCount() Report {
	k0 := newKernel(core.S0Baseline)
	defer k0.Shutdown()
	k1 := newKernel(core.S1LinkerRemoved)
	defer k1.Shutdown()
	i0, i1 := k0.Inventory(), k1.Inventory()
	drop := 100 * float64(i0.Gates-i1.Gates) / float64(i0.Gates)

	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %8s\n", "configuration", "gates", "user")
	fmt.Fprintf(&b, "%-24s %8d %8d\n", i0.Stage, i0.Gates, i0.UserGates)
	fmt.Fprintf(&b, "%-24s %8d %8d\n", i1.Stage, i1.Gates, i1.UserGates)
	fmt.Fprintf(&b, "linker gates removed: %d (%.1f%% of all gate entry points)\n", i0.Gates-i1.Gates, drop)
	return Report{
		PaperClaim: "the linker's removal eliminated 10% of the gate entry points into the supervisor",
		Table:      b.String(),
		Measured:   fmt.Sprintf("%.1f%% of gate entry points removed", drop),
		Pass:       drop >= 7 && drop <= 16,
	}
}

// E2AddressSpaceCode reproduces: "a reduction by a factor of ten in the
// size of the protected code needed to manage the address space".
func E2AddressSpaceCode() Report {
	k0 := newKernel(core.S0Baseline)
	defer k0.Shutdown()
	k2 := newKernel(core.S2RefNamesRemoved)
	defer k2.Shutdown()
	i0, i2 := k0.Inventory(), k2.Inventory()
	ratio := float64(i0.AddressSpaceUnits) / float64(i2.AddressSpaceUnits)

	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %28s\n", "configuration", "address-space code units")
	fmt.Fprintf(&b, "%-24s %28d\n", i0.Stage, i0.AddressSpaceUnits)
	fmt.Fprintf(&b, "%-24s %28d\n", i2.Stage, i2.AddressSpaceUnits)
	fmt.Fprintf(&b, "reduction: %.1fx\n", ratio)
	return Report{
		PaperClaim: "a reduction by a factor of ten in the size of the protected code needed to manage the address space",
		Table:      b.String(),
		Measured:   fmt.Sprintf("%.1fx reduction", ratio),
		Pass:       ratio >= 6 && ratio <= 14,
	}
}

// E3SupervisorEntries reproduces: the two removals together "reduce the
// number of user-available supervisor entries by approximately one third".
func E3SupervisorEntries() Report {
	k0 := newKernel(core.S0Baseline)
	defer k0.Shutdown()
	k2 := newKernel(core.S2RefNamesRemoved)
	defer k2.Shutdown()
	i0, i2 := k0.Inventory(), k2.Inventory()
	drop := 100 * float64(i0.UserGates-i2.UserGates) / float64(i0.UserGates)

	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %24s\n", "configuration", "user-available entries")
	fmt.Fprintf(&b, "%-24s %24d\n", i0.Stage, i0.UserGates)
	fmt.Fprintf(&b, "%-24s %24d\n", i2.Stage, i2.UserGates)
	fmt.Fprintf(&b, "reduction: %.1f%%\n", drop)
	return Report{
		PaperClaim: "the linker and reference name removal projects together reduce the number of user-available supervisor entries by approximately one third",
		Table:      b.String(),
		Measured:   fmt.Sprintf("%.1f%% fewer user-available entries", drop),
		Pass:       drop >= 25 && drop <= 42,
	}
}

// E4CrossRingCall reproduces the hardware-history claim: on the 645 a call
// that changed rings was far more expensive than one that did not; on the
// 6180 "calls from one ring to another now cost no more than calls inside
// a ring".
func E4CrossRingCall() Report {
	measure := func(cost machine.CostModel) (intra, cross int64) {
		ds := machine.NewDescriptorSegment(8)
		clk := machine.NewClock()
		cpu := machine.NewProcessor(ds, clk, cost, machine.UserRing, nil)
		echo := &machine.Procedure{Name: "echo", Entries: []machine.EntryFunc{
			func(_ *machine.ExecContext, a []uint64) ([]uint64, error) { return a, nil },
		}}
		mustSet(ds, 1, machine.SDW{Proc: echo, Mode: machine.ModeExecute,
			Brackets: machine.UserBrackets(machine.UserRing)})
		mustSet(ds, 2, machine.SDW{Proc: echo, Mode: machine.ModeExecute,
			Brackets: machine.GateBrackets(machine.KernelRing, machine.UserRing), Gates: 1})
		const n = 1000
		start := clk.Now()
		for i := 0; i < n; i++ {
			if _, err := cpu.Call(1, 0, nil); err != nil {
				panic(err)
			}
		}
		intra = (clk.Now() - start) / n
		start = clk.Now()
		for i := 0; i < n; i++ {
			if _, err := cpu.Call(2, 0, nil); err != nil {
				panic(err)
			}
		}
		cross = (clk.Now() - start) / n
		return intra, cross
	}
	i645, c645 := measure(machine.Model645())
	i6180, c6180 := measure(machine.Model6180())
	r645 := float64(c645) / float64(i645)
	r6180 := float64(c6180) / float64(i6180)

	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %12s %12s %8s\n", "machine", "intra-ring", "cross-ring", "ratio")
	fmt.Fprintf(&b, "%-34s %12d %12d %7.1fx\n", "Honeywell 645 (software rings)", i645, c645, r645)
	fmt.Fprintf(&b, "%-34s %12d %12d %7.1fx\n", "Honeywell 6180 (hardware rings)", i6180, c6180, r6180)
	return Report{
		PaperClaim: "on the 6180, calls from one ring to another now cost no more than calls inside a ring; on the 645 they were quite expensive",
		Table:      b.String(),
		Measured:   fmt.Sprintf("645: %.0fx penalty; 6180: %.1fx penalty", r645, r6180),
		Pass:       r645 > 10 && r6180 < 2,
	}
}

func mustSet(ds *machine.DescriptorSegment, seg machine.SegNo, sdw machine.SDW) {
	if err := ds.Set(seg, sdw); err != nil {
		panic(err)
	}
}

// PageFaultWorkload drives one pager through a fixed overcommitted page
// trace and returns the fault statistics plus elapsed virtual time.
func PageFaultWorkload(parallel bool, pages, touches int) (pagectl.FaultStats, int64, int64) {
	cfg := mem.DefaultConfig()
	cfg.PageWords = 16
	cfg.CoreFrames = 8
	cfg.BulkBlocks = 16
	store, err := mem.NewStore(cfg)
	if err != nil {
		panic(err)
	}
	if _, err := store.CreateSegment(1, pages*cfg.PageWords); err != nil {
		panic(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	sch.AddVP("cpu-a", false)
	var pager pagectl.Pager
	var kernelEv *int64
	if parallel {
		pp, err := pagectl.NewParallelPager(store, sch,
			pagectl.ParallelConfig{CoreLowWater: 2, CoreTarget: 4, BulkLowWater: 2, BulkTarget: 4},
			pagectl.FIFOPolicy{}, nil)
		if err != nil {
			panic(err)
		}
		pager = pp
		kernelEv = &pp.KernelEvictions
	} else {
		pager = pagectl.NewSequentialPager(store, pagectl.FIFOPolicy{}, nil)
	}
	// A deterministic trace with locality: a sliding window plus strides.
	sch.Spawn("workload", func(pc *sched.ProcCtx) {
		for i := 0; i < touches; i++ {
			page := (i*7 + (i/13)*3) % pages
			if err := pager.Handle(pc, &machine.PageFault{SegTag: 1, Page: page}); err != nil {
				panic(err)
			}
		}
	})
	sch.Run(0)
	var kev int64
	if kernelEv != nil {
		kev = *kernelEv
	}
	return pager.Stats(), clk.Now(), kev
}

// E5PageFaultPath reproduces the page-control redesign: "the path taken by
// a user process on a page fault is greatly simplified".
func E5PageFaultPath() Report {
	const pages, touches = 64, 400
	seq, seqTime, _ := PageFaultWorkload(false, pages, touches)
	par, parTime, kev := PageFaultWorkload(true, pages, touches)

	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10s %12s %12s %10s %10s\n",
		"design", "faults", "faulter-ops", "faulter-evs", "max-casc", "avg-wait")
	fmt.Fprintf(&b, "%-26s %10d %12d %12d %10d %10d\n",
		"sequential (old)", seq.Faults, seq.FaulterSteps, seq.FaulterEvictions, seq.MaxCascade, seq.WaitCycles/seq.Faults)
	fmt.Fprintf(&b, "%-26s %10d %12d %12d %10d %10d\n",
		"parallel (new)", par.Faults, par.FaulterSteps, par.FaulterEvictions, par.MaxCascade, par.WaitCycles/par.Faults)
	fmt.Fprintf(&b, "kernel-process evictions under the new design: %d\n", kev)
	fmt.Fprintf(&b, "total virtual time: sequential %d, parallel %d\n", seqTime, parTime)
	opsRatio := float64(seq.FaulterSteps) / float64(par.FaulterSteps)
	return Report{
		PaperClaim: "the faulting process can just wait until a primary memory block is free; the old design ran the whole core->bulk->disk cascade in the faulting process",
		Table:      b.String(),
		Measured: fmt.Sprintf("faulter evictions %d -> %d; faulter ops per fault %.2f -> %.2f (%.1fx shorter path)",
			seq.FaulterEvictions, par.FaulterEvictions,
			float64(seq.FaulterSteps)/float64(seq.Faults), float64(par.FaulterSteps)/float64(par.Faults), opsRatio),
		Pass: par.FaulterEvictions == 0 && seq.FaulterEvictions > 0 && par.FaulterSteps < seq.FaulterSteps,
	}
}
