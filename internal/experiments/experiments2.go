package experiments

import (
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/interrupt"
	"repro/internal/iosys"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mls"
	"repro/internal/policy"
	"repro/internal/sched"
)

// BufferWorkload drives a buffer with a bursty producer and a slower
// consumer, returning delivered and lost counts.
func BufferWorkload(buf iosys.Buffer, messages, burst, drainPerBurst int) (delivered, lost int64) {
	seq := uint64(0)
	for seq < uint64(messages) {
		for i := 0; i < burst && seq < uint64(messages); i++ {
			if err := buf.Put(iosys.Message{Seq: seq}); err != nil {
				panic(err)
			}
			seq++
		}
		for i := 0; i < drainPerBurst; i++ {
			if _, ok, err := buf.Get(); err != nil {
				panic(err)
			} else if ok {
				delivered++
			}
		}
	}
	for {
		if _, ok, err := buf.Get(); err != nil {
			panic(err)
		} else if !ok {
			break
		}
		delivered++
	}
	return delivered, buf.Lost()
}

// E6NetworkBuffer reproduces the infinite-buffer simplification: the
// circular buffer destroys old messages under load; the VM-backed buffer
// cannot.
func E6NetworkBuffer() Report {
	const messages, burst, drain = 2000, 24, 8
	circ, err := iosys.NewCircularBuffer(16)
	if err != nil {
		panic(err)
	}
	cDel, cLost := BufferWorkload(circ, messages, burst, drain)

	cfg := mem.DefaultConfig()
	cfg.CoreFrames = 1024
	cfg.BulkBlocks = 1024
	store, err := mem.NewStore(cfg)
	if err != nil {
		panic(err)
	}
	inf, err := iosys.NewInfiniteBuffer(store, 1)
	if err != nil {
		panic(err)
	}
	iDel, iLost := BufferWorkload(inf, messages, burst, drain)

	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %10s %10s\n", "buffer", "offered", "delivered", "lost")
	fmt.Fprintf(&b, "%-28s %10d %10d %10d\n", "circular (16 slots, old)", messages, cDel, cLost)
	fmt.Fprintf(&b, "%-28s %10d %10d %10d\n", "infinite VM-backed (new)", messages, iDel, iLost)
	fmt.Fprintf(&b, "pages materialized by the infinite buffer: %d\n", inf.PagesUsed())
	return Report{
		PaperClaim: "the old circular buffer had problems of old messages not being removed before a complete circuit; the infinite buffer uses the standard storage facility (the virtual memory) instead",
		Table:      b.String(),
		Measured:   fmt.Sprintf("circular lost %d of %d under overload; infinite lost %d", cLost, messages, iLost),
		Pass:       cLost > 0 && iLost == 0 && iDel == messages,
	}
}

// E7PolicyFaultInjection reproduces the policy/mechanism claim: a hostile
// replacement policy in the policy ring "could never cause unauthorized use
// or modification ... It could only cause denial of use."
func E7PolicyFaultInjection() Report {
	cfg := mem.DefaultConfig()
	cfg.PageWords = 8
	cfg.CoreFrames = 12
	cfg.BulkBlocks = 64
	store, err := mem.NewStore(cfg)
	if err != nil {
		panic(err)
	}
	if _, err := store.CreateSegment(1, 10*cfg.PageWords); err != nil {
		panic(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := store.PageIn(mem.PageID{SegUID: 1, Index: i}); err != nil {
			panic(err)
		}
	}
	// Wire two frames (kernel pages) so the policy has privileged targets.
	for _, f := range store.Frames() {
		if !f.Free {
			if err := store.Wire(f.ID, true); err != nil {
				panic(err)
			}
			break
		}
	}
	var log policy.AttackLog
	dom, err := policy.NewDomain(machine.NewClock(), machine.Model6180(),
		policy.NewMechanism(store), policy.AdversarialPolicyCode(&log))
	if err != nil {
		panic(err)
	}
	const rounds = 25
	denials := 0
	for i := 0; i < rounds; i++ {
		if _, err := dom.Choose(); err != nil {
			denials++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "adversarial policy ran %d decision rounds in the policy ring\n", rounds)
	fmt.Fprintf(&b, "%-44s %6d\n", "unauthorized reads achieved", log.UnauthorizedReads)
	fmt.Fprintf(&b, "%-44s %6d\n", "unauthorized writes achieved", log.UnauthorizedWrites)
	fmt.Fprintf(&b, "%-44s %6d\n", "direct kernel references blocked (ring)", log.RingFaultsBlocked)
	fmt.Fprintf(&b, "%-44s %6d\n", "hidden-entry probes blocked (gate)", log.GateFaultsBlocked)
	fmt.Fprintf(&b, "%-44s %6d\n", "unmapped references blocked (segment)", log.SegFaultsBlocked)
	fmt.Fprintf(&b, "%-44s %6d\n", "wired-frame evictions refused (mechanism)", log.WiredDenials)
	fmt.Fprintf(&b, "%-44s %6d\n", "gratuitous (denial-of-use) evictions", log.DenialMoves)
	return Report{
		PaperClaim: "the policy algorithm could never cause unauthorized use or modification of the information stored in the pages; it could only cause denial of use",
		Table:      b.String(),
		Measured: fmt.Sprintf("0 unauthorized reads/writes across %d hostile rounds; %d denial-of-use evictions",
			rounds, log.DenialMoves),
		Pass: log.UnauthorizedReads == 0 && log.UnauthorizedWrites == 0 && log.DenialMoves > 0 &&
			log.RingFaultsBlocked > 0 && log.WiredDenials > 0,
	}
}

// InterruptWorkload raises a deterministic interrupt pattern against one
// interceptor style while a user process computes.
func InterruptWorkload(useProcesses bool, interrupts int) (interrupt.Stats, int64) {
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	sch.AddVP("cpu-a", false)
	var ic interrupt.Interceptor
	const handlerCost = 40
	if useProcesses {
		pi := interrupt.NewProcessInterceptor(sch)
		for _, src := range []string{"disk", "net", "tty"} {
			if err := pi.Register(src, func(pc *sched.ProcCtx, ev interrupt.Event) {
				pc.Consume(handlerCost)
			}); err != nil {
				panic(err)
			}
		}
		ic = pi
	} else {
		bi := interrupt.NewBorrowedInterceptor(sch)
		for _, src := range []string{"disk", "net", "tty"} {
			if err := bi.Register(src, func(ev interrupt.Event, tryBlock func() error) int64 {
				_ = tryBlock() // old handlers keep trying to coordinate
				return handlerCost
			}); err != nil {
				panic(err)
			}
		}
		ic = bi
	}
	sources := []string{"disk", "net", "tty"}
	for i := 0; i < interrupts; i++ {
		at := int64(50 + i*37)
		src := sources[i%3]
		data := uint64(i)
		sch.At(at, func() { ic.Raise(src, data) })
	}
	sch.Spawn("user", func(pc *sched.ProcCtx) {
		for i := 0; i < interrupts; i++ {
			pc.Consume(20)
			pc.Sleep(30)
		}
	})
	sch.Run(0)
	return ic.Stats(), clk.Now()
}

// E8InterruptHandling reproduces the interrupt redesign: "the system
// interrupt interceptor will simply turn each interrupt into a wakeup of
// the corresponding process".
func E8InterruptHandling() Report {
	const n = 120
	old, _ := InterruptWorkload(false, n)
	new_, _ := InterruptWorkload(true, n)

	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %8s %8s %14s %16s\n", "design", "raised", "handled", "stolen-cycles", "blocked-attempts")
	fmt.Fprintf(&b, "%-30s %8d %8d %14d %16d\n", "borrowed process (old)", old.Raised, old.Handled, old.StolenCycles, old.BlockedAttempts)
	fmt.Fprintf(&b, "%-30s %8d %8d %14d %16d\n", "dedicated processes (new)", new_.Raised, new_.Handled, new_.StolenCycles, new_.BlockedAttempts)
	return Report{
		PaperClaim: "each interrupt handler will be assigned its own process ... the interrupt interceptor will simply turn each interrupt into a wakeup; handlers can use the normal IPC mechanisms",
		Table:      b.String(),
		Measured: fmt.Sprintf("stolen cycles %d -> %d; forbidden-blocking attempts %d -> %d; all %d handled in both",
			old.StolenCycles, new_.StolenCycles, old.BlockedAttempts, new_.BlockedAttempts, n),
		Pass: old.StolenCycles > 0 && new_.StolenCycles == 0 && new_.Handled == n && old.Handled == n &&
			old.BlockedAttempts > 0 && new_.BlockedAttempts == 0,
	}
}

// E9KernelInventory tabulates the kernel's structural shrinkage across all
// seven stages.
func E9KernelInventory() Report {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %7s %7s %10s %10s %10s %10s\n",
		"stage", "gates", "user", "gate-u", "module-u", "total-u", "boot-priv")
	prevTotal := 0
	monotone := true
	for s := core.S0Baseline; s < core.NumStages; s++ {
		k := newKernel(s)
		inv := k.Inventory()
		k.Shutdown()
		fmt.Fprintf(&b, "%-24s %7d %7d %10d %10d %10d %10d\n",
			inv.Stage, inv.Gates, inv.UserGates, inv.GateUnits, inv.ModuleUnits, inv.TotalUnits, inv.PrivilegedBootSteps)
		if s > core.S0Baseline && inv.TotalUnits >= prevTotal {
			monotone = false
		}
		prevTotal = inv.TotalUnits
	}
	k0 := newKernel(core.S0Baseline)
	i0 := k0.Inventory()
	k0.Shutdown()
	k6 := newKernel(core.S6Restructured)
	i6 := k6.Inventory()
	k6.Shutdown()
	shrink := 100 * float64(i0.TotalUnits-i6.TotalUnits) / float64(i0.TotalUnits)
	return Report{
		PaperClaim: "one wave of simplification applied to the central core of the system will produce ... a structure that is significantly easier to understand (monotone shrinkage of the protected core)",
		Table:      b.String(),
		Measured:   fmt.Sprintf("total protected code shrank %.0f%% from S0 to S6, monotonically", shrink),
		Pass:       monotone && shrink > 30,
	}
}

// E10Penetration runs the attack catalog against the baseline and the
// post-removal kernels.
func E10Penetration() Report {
	run := func(stage core.Stage) (map[audit.Outcome]int, string) {
		k := newKernel(stage)
		defer k.Shutdown()
		suite, err := audit.NewSuite(k)
		if err != nil {
			panic(err)
		}
		results := suite.Run()
		return audit.Summary(results), audit.Format(results)
	}
	s0, _ := run(core.S0Baseline)
	s2, detail2 := run(core.S2RefNamesRemoved)
	s6, _ := run(core.S6Restructured)

	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %9s %11s %12s %16s\n", "stage", "blocked", "contained", "compromises", "authorized-leak")
	for _, row := range []struct {
		name string
		m    map[audit.Outcome]int
	}{
		{"S0-baseline", s0}, {"S2-refnames-removed", s2}, {"S6-restructured", s6},
	} {
		fmt.Fprintf(&b, "%-24s %9d %11d %12d %16d\n", row.name,
			row.m[audit.Blocked], row.m[audit.Contained], row.m[audit.SupervisorCompromise], row.m[audit.AuthorizedLeak])
	}
	b.WriteString("\nS2 per-attack detail:\n")
	b.WriteString(detail2)
	return Report{
		PaperClaim: "the chances of such a complex argument, if maliciously malstructured, causing the linker to malfunction while executing in the supervisor were demonstrated to be very high; removal confines the damage to the user ring",
		Table:      b.String(),
		Measured: fmt.Sprintf("supervisor compromises: S0=%d, S2=%d, S6=%d",
			s0[audit.SupervisorCompromise], s2[audit.SupervisorCompromise], s6[audit.SupervisorCompromise]),
		Pass: s0[audit.SupervisorCompromise] >= 2 && s2[audit.SupervisorCompromise] == 0 && s6[audit.SupervisorCompromise] == 0,
	}
}

// E11MLSPartitioning verifies the bottom-layer compartmentalization: no
// information flow between incomparable compartments, under any
// discretionary settings; sharing works only within a compartment.
func E11MLSPartitioning() Report {
	nato := mls.NewLabel(mls.Secret, "nato")
	crypto := mls.NewLabel(mls.Secret, "crypto")
	both := mls.NewLabel(mls.Secret, "nato", "crypto")
	low := mls.NewLabel(mls.Unclassified)
	labels := []mls.Label{low, nato, crypto, both}
	names := []string{"unclassified", "secret{nato}", "secret{crypto}", "secret{nato,crypto}"}

	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "subject \\ object")
	for _, n := range names {
		fmt.Fprintf(&b, " %-20s", n)
	}
	b.WriteString("\n")
	crossCompartmentFlows := 0
	withinCompartmentOK := true
	for i, subj := range labels {
		fmt.Fprintf(&b, "%-22s", names[i])
		for _, obj := range labels {
			r := mls.CheckRead(subj, obj) == nil
			w := mls.CheckWrite(subj, obj) == nil
			cell := "-"
			switch {
			case r && w:
				cell = "rw"
			case r:
				cell = "r"
			case w:
				cell = "w"
			}
			fmt.Fprintf(&b, " %-20s", cell)
			// A flow between incomparable labels in either direction is a
			// compartment breach.
			if !subj.Comparable(obj) && (r || w) {
				crossCompartmentFlows++
			}
			if subj.Equal(obj) && (!r || !w) {
				withinCompartmentOK = false
			}
		}
		b.WriteString("\n")
	}
	return Report{
		PaperClaim: "mechanisms to provide absolute compartmentalization ... at the bottom layer ... controlled sharing within the compartments ... at the next layer; the second layer mechanisms would be common only within each compartment",
		Table:      b.String(),
		Measured:   fmt.Sprintf("%d flows between incomparable compartments (want 0); full access within each compartment", crossCompartmentFlows),
		Pass:       crossCompartmentFlows == 0 && withinCompartmentOK,
	}
}

// E12BootComplexity reproduces the initialization removal: the memory-image
// pattern leaves one privileged step where the bootstrap had many.
func E12BootComplexity() Report {
	_, bRep, err := boot.Bootstrap(boot.StandardSteps(), machine.NewClock())
	if err != nil {
		panic(err)
	}
	im, err := boot.BuildImage(boot.StandardSteps(), machine.NewClock())
	if err != nil {
		panic(err)
	}
	_, iRep, err := boot.LoadImage(im, machine.NewClock(), boot.ImageLoadCycles)
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10s %12s %14s %12s\n", "pattern", "steps", "privileged", "priv-cycles", "total-cycles")
	fmt.Fprintf(&b, "%-26s %10d %12d %14d %12d\n", bRep.Pattern, bRep.StepsRun, bRep.PrivilegedSteps, bRep.PrivilegedCycles, bRep.TotalCycles)
	fmt.Fprintf(&b, "%-26s %10d %12d %14d %12d\n", iRep.Pattern, iRep.StepsRun, iRep.PrivilegedSteps, iRep.PrivilegedCycles, iRep.TotalCycles)
	fmt.Fprintf(&b, "image size: %d words (generated once in a user environment of a previous system)\n", len(im.Words()))
	return Report{
		PaperClaim: "produce on a system tape a bit pattern which, when loaded into memory, manifests a fully initialized system ... one pattern of operation may be much simpler to certify",
		Table:      b.String(),
		Measured: fmt.Sprintf("privileged boot steps %d -> %d; privileged boot cycles %d -> %d",
			bRep.PrivilegedSteps, iRep.PrivilegedSteps, bRep.PrivilegedCycles, iRep.PrivilegedCycles),
		Pass: iRep.PrivilegedSteps == 1 && bRep.PrivilegedSteps >= 10 && iRep.PrivilegedCycles < bRep.PrivilegedCycles,
	}
}
