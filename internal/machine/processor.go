package machine

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Procedure is the simulated code body of an executable segment. Each entry
// point is a Go function that receives the execution context through which
// every memory reference and call is mediated — simulated code has no other
// way to touch the machine, so the descriptor-segment checks cannot be
// bypassed.
type Procedure struct {
	// Name identifies the procedure in faults and traces.
	Name string
	// Entries are the entry points, indexed by entry number.
	Entries []EntryFunc
}

// EntryFunc is one entry point of a simulated procedure.
type EntryFunc func(ctx *ExecContext, args []uint64) ([]uint64, error)

// MaxCallDepth bounds the simulated call stack, converting runaway recursion
// in simulated code into a fault rather than a Go stack overflow.
const MaxCallDepth = 256

// Stats records the event counts a processor accumulates; the experiment
// harness reads them to report path lengths and fault behaviour.
type Stats struct {
	Loads          int64
	Stores         int64
	Calls          int64
	CrossRingCalls int64
	GateCalls      int64
	// AssocHits/AssocMisses/AssocInvalidations mirror the processor's
	// associative-memory counters: references satisfied from the cached
	// SDW decision, references that walked the descriptor segment, and
	// entries flushed by descriptor mutation.
	AssocHits          int64
	AssocMisses        int64
	AssocInvalidations int64
	Faults             map[FaultClass]int64
}

func newStats() Stats { return Stats{Faults: make(map[FaultClass]int64)} }

// Processor simulates one CPU executing within a single process environment:
// a descriptor segment, a current ring, and the per-process linkage
// information used by dynamic linking. Simulated code runs by calling entry
// points through the processor, which applies every protection check the
// hardware would.
type Processor struct {
	// DS is the descriptor segment of the executing process.
	DS *DescriptorSegment
	// Clock is the shared virtual clock; costs are charged to it.
	Clock *Clock
	// Cost is the machine cost model (645 or 6180).
	Cost CostModel

	// Pager handles page faults; nil means page faults abort the access.
	Pager PageFaultHandler
	// Linker handles linkage faults; nil means unsnapped references fail.
	Linker LinkageFaultHandler

	ring    Ring
	depth   int
	stats   Stats
	linkage map[SegNo]map[LinkRef]LinkTarget
	// assoc is the associative memory consulted before every descriptor
	// walk; see assoc.go. It is registered with DS for invalidation, so DS
	// must not be swapped after construction.
	assoc *AssocMemory
	// sink, when set, receives one trace.Event per delivered fault — the
	// uniform spine hookup shared with sched, netattach, and faults.
	sink trace.Sink
	// ctxCache holds one reusable ExecContext per call depth, so gate
	// dispatch allocates nothing on the steady-state hot path.
	ctxCache []ExecContext
	// mAssocHits/mAssocMisses/mFaults, when set, publish into the unified
	// metrics registry alongside the per-processor stats (see SetMetrics).
	mAssocHits   *metrics.Counter
	mAssocMisses *metrics.Counter
	mFaults      *metrics.Counter
}

// NewProcessor returns a processor executing in ring over ds, with an
// enabled associative memory registered on ds for invalidation.
func NewProcessor(ds *DescriptorSegment, clock *Clock, cost CostModel, ring Ring) *Processor {
	p := &Processor{
		DS:      ds,
		Clock:   clock,
		Cost:    cost,
		ring:    ring,
		stats:   newStats(),
		linkage: make(map[SegNo]map[LinkRef]LinkTarget),
		assoc:   NewAssocMemory(),
	}
	ds.attachAssoc(p.assoc)
	return p
}

// Assoc returns the processor's associative memory.
func (p *Processor) Assoc() *AssocMemory { return p.assoc }

// SetAssocEnabled turns the associative memory on or off (off models the
// 645-style full descriptor walk on every reference).
func (p *Processor) SetAssocEnabled(on bool) { p.assoc.SetEnabled(on) }

// Ring returns the current ring of execution.
func (p *Processor) Ring() Ring { return p.ring }

// Stats returns a copy of the accumulated event counts.
func (p *Processor) Stats() Stats {
	out := p.stats
	out.AssocInvalidations = p.assoc.stats.Invalidations
	out.Faults = make(map[FaultClass]int64, len(p.stats.Faults))
	for k, v := range p.stats.Faults {
		out.Faults[k] = v
	}
	return out
}

// ResetStats zeroes the accumulated event counts, including the associative
// memory's (its entries survive — only the counters reset).
func (p *Processor) ResetStats() {
	p.stats = newStats()
	p.assoc.ResetStats()
}

// SetSink directs fault delivery at s: every fault the processor
// charges — including page and linkage faults that are subsequently
// handled — is recorded as a trace.Event with Stage trace.StageFault,
// stamped with the virtual cycle at delivery. A nil sink disables it.
func (p *Processor) SetSink(s trace.Sink) { p.sink = s }

// SetMetrics publishes the processor's hot-path counters into reg under
// machine.* names (assoc hits/misses/invalidations, delivered faults) in
// addition to the per-processor Stats. All processors of one kernel share
// the registry, so the machine.* counters aggregate across CPUs. A nil
// registry detaches the processor.
func (p *Processor) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		p.mAssocHits, p.mAssocMisses, p.mFaults = nil, nil, nil
		p.assoc.invalidations = nil
		return
	}
	p.mAssocHits = reg.Counter("machine.assoc_hits")
	p.mAssocMisses = reg.Counter("machine.assoc_misses")
	p.mFaults = reg.Counter("machine.faults")
	p.assoc.invalidations = reg.Counter("machine.assoc_invalidations")
}

// emitFault records a delivered fault at the trace sink.
func (p *Processor) emitFault(f *Fault) {
	if p.sink != nil {
		outcome := trace.ClassFailed
		switch f.Class {
		case FaultAccess, FaultRing, FaultGate:
			outcome = trace.ClassAccessDenied
		}
		var at int64
		if p.Clock != nil {
			at = p.Clock.Now()
		}
		p.sink.Record(trace.Event{
			Stage:   trace.StageFault,
			Name:    f.Class.String(),
			Ring:    int(f.Ring),
			Subject: uint64(f.Seg),
			Arg:     uint64(f.Offset),
			Outcome: outcome,
			At:      at,
			Detail:  f.Detail,
		})
	}
}

// SnapLink records a resolved link so later symbolic calls bypass the
// linkage fault. It is exposed so a user-ring linker can snap links for the
// process it runs in.
func (p *Processor) SnapLink(inSeg SegNo, ref LinkRef, target LinkTarget) {
	m := p.linkage[inSeg]
	if m == nil {
		m = make(map[LinkRef]LinkTarget)
		p.linkage[inSeg] = m
	}
	m[ref] = target
}

// SnappedLink returns the target previously snapped for ref in inSeg.
func (p *Processor) SnappedLink(inSeg SegNo, ref LinkRef) (LinkTarget, bool) {
	t, ok := p.linkage[inSeg][ref]
	return t, ok
}

// SnappedLinkCount returns the number of links snapped in inSeg.
func (p *Processor) SnappedLinkCount(inSeg SegNo) int { return len(p.linkage[inSeg]) }

func (p *Processor) fault(f *Fault) *Fault {
	p.stats.Faults[f.Class]++
	if p.mFaults != nil {
		p.mFaults.Inc()
	}
	p.Clock.Advance(p.Cost.FaultOverhead)
	p.emitFault(f)
	return f
}

// checkData validates a data reference to sdw from ring with the wanted
// access, returning a fault on violation.
func (p *Processor) checkData(seg SegNo, sdw *SDW, off int, want AccessMode) *Fault {
	if !sdw.InUse() {
		return p.fault(&Fault{Class: FaultSegment, Seg: seg, Offset: off, Ring: p.ring, Wanted: want, Detail: ErrNoDescriptor.Error()})
	}
	if sdw.Backing == nil {
		return p.fault(&Fault{Class: FaultAccess, Seg: seg, Offset: off, Ring: p.ring, Wanted: want, Detail: "pure procedure segment has no data backing"})
	}
	// The SDW checks (mode, then ring brackets) come before the bounds
	// check, as in the hardware.
	if !sdw.Mode.Has(want) {
		return p.fault(&Fault{Class: FaultAccess, Seg: seg, Offset: off, Ring: p.ring, Wanted: want})
	}
	switch {
	case want.Has(ModeWrite):
		if p.ring > sdw.Brackets.R1 {
			return p.fault(&Fault{Class: FaultRing, Seg: seg, Offset: off, Ring: p.ring, Wanted: want,
				Detail: fmt.Sprintf("write bracket %v", sdw.Brackets)})
		}
	case want.Has(ModeRead):
		if p.ring > sdw.Brackets.R2 {
			return p.fault(&Fault{Class: FaultRing, Seg: seg, Offset: off, Ring: p.ring, Wanted: want,
				Detail: fmt.Sprintf("read bracket %v", sdw.Brackets)})
		}
	}
	if off < 0 || off >= sdw.Backing.Length() {
		return p.fault(&Fault{Class: FaultOutOfBounds, Seg: seg, Offset: off, Ring: p.ring, Wanted: want})
	}
	return nil
}

// access performs one checked word reference, retrying once after a
// successfully handled page fault. The associative memory is probed first:
// on a hit the mode and ring-bracket checks are already encoded in the
// cached decision and only the bounds check (which depends on the offset)
// runs; on a miss the full descriptor walk is charged and the resulting
// decision cached.
func (p *Processor) access(seg SegNo, off int, want AccessMode, write bool, val uint64) (uint64, error) {
	var sdw *SDW
	if e := p.assoc.lookup(seg, p.ring); e != nil && ((write && e.writeOK) || (!write && e.readOK)) {
		p.stats.AssocHits++
		if p.mAssocHits != nil {
			p.mAssocHits.Inc()
		}
		p.Clock.Advance(p.Cost.AssocSearch)
		sdw = e.sdw
		if off < 0 || off >= sdw.Backing.Length() {
			return 0, p.fault(&Fault{Class: FaultOutOfBounds, Seg: seg, Offset: off, Ring: p.ring, Wanted: want})
		}
	} else {
		if p.assoc.Enabled() {
			p.stats.AssocMisses++
			if p.mAssocMisses != nil {
				p.mAssocMisses.Inc()
			}
			p.Clock.Advance(p.Cost.AssocSearch)
		}
		p.Clock.Advance(p.Cost.DescriptorWalk)
		sdw = p.DS.SDW(seg)
		if sdw == nil {
			return 0, p.fault(&Fault{Class: FaultSegment, Seg: seg, Offset: off, Ring: p.ring, Wanted: want,
				Detail: "segment number out of descriptor range"})
		}
		if f := p.checkData(seg, sdw, off, want); f != nil {
			return 0, f
		}
		p.assoc.fill(seg, p.ring, sdw)
	}
	for attempt := 0; ; attempt++ {
		var err error
		var out uint64
		if write {
			p.stats.Stores++
			p.Clock.Advance(p.Cost.Store)
			err = sdw.Backing.WriteWord(off, val)
		} else {
			p.stats.Loads++
			p.Clock.Advance(p.Cost.Load)
			out, err = sdw.Backing.ReadWord(off)
		}
		if err == nil {
			return out, nil
		}
		pf, ok := err.(*PageFault)
		if !ok {
			return 0, err
		}
		p.stats.Faults[FaultPage]++
		if p.mFaults != nil {
			p.mFaults.Inc()
		}
		p.Clock.Advance(p.Cost.FaultOverhead)
		p.emitFault(&Fault{Class: FaultPage, Seg: seg, Offset: off, Ring: p.ring, Wanted: want, Detail: pf.Error()})
		if p.Pager == nil || attempt > 0 {
			return 0, &Fault{Class: FaultPage, Seg: seg, Offset: off, Ring: p.ring, Wanted: want, Detail: pf.Error()}
		}
		if herr := p.Pager.HandlePageFault(pf); herr != nil {
			return 0, fmt.Errorf("page fault on segment %d offset %d: %w", seg, off, herr)
		}
	}
}

// Load performs a checked read of one word.
func (p *Processor) Load(seg SegNo, off int) (uint64, error) {
	return p.access(seg, off, ModeRead, false, 0)
}

// Store performs a checked write of one word.
func (p *Processor) Store(seg SegNo, off int, val uint64) error {
	_, err := p.access(seg, off, ModeWrite, true, val)
	return err
}

// resolveCall applies the ring-bracket call rules, returning the ring the
// callee will execute in and whether the call passes through a gate.
func (p *Processor) resolveCall(seg SegNo, sdw *SDW, entry int) (Ring, bool, *Fault) {
	if !sdw.InUse() {
		return 0, false, p.fault(&Fault{Class: FaultSegment, Seg: seg, Ring: p.ring, Wanted: ModeExecute,
			Detail: ErrNoDescriptor.Error()})
	}
	if sdw.Proc == nil {
		return 0, false, p.fault(&Fault{Class: FaultAccess, Seg: seg, Ring: p.ring, Wanted: ModeExecute,
			Detail: "segment is not executable (no procedure body)"})
	}
	if !sdw.Mode.Has(ModeExecute) {
		return 0, false, p.fault(&Fault{Class: FaultAccess, Seg: seg, Ring: p.ring, Wanted: ModeExecute})
	}
	if entry < 0 || entry >= len(sdw.Proc.Entries) {
		return 0, false, p.fault(&Fault{Class: FaultGate, Seg: seg, Ring: p.ring, Wanted: ModeExecute,
			Detail: fmt.Sprintf("entry %d out of range [0,%d)", entry, len(sdw.Proc.Entries))})
	}
	b := sdw.Brackets
	switch {
	case p.ring >= b.R1 && p.ring <= b.R2:
		// Within the execute bracket: call without ring change.
		return p.ring, false, nil
	case p.ring > b.R2 && p.ring <= b.R3:
		// Outside the execute bracket but within the gate extension:
		// permitted only through a declared gate entry, switching to R2.
		if entry >= sdw.Gates {
			return 0, false, p.fault(&Fault{Class: FaultGate, Seg: seg, Ring: p.ring, Wanted: ModeExecute,
				Detail: fmt.Sprintf("entry %d is not a gate (segment has %d gates)", entry, sdw.Gates)})
		}
		return b.R2, true, nil
	case p.ring < b.R1:
		// Outward call: execution moves to the less privileged R1.
		return b.R1, false, nil
	default:
		return 0, false, p.fault(&Fault{Class: FaultRing, Seg: seg, Ring: p.ring, Wanted: ModeExecute,
			Detail: fmt.Sprintf("caller outside call bracket %v", b)})
	}
}

// Call invokes entry of the procedure segment seg with args, applying the
// ring-bracket call rules, charging the appropriate costs, and restoring the
// caller's ring when the callee returns.
func (p *Processor) Call(seg SegNo, entry int, args []uint64) ([]uint64, error) {
	var (
		sdw     *SDW
		target  Ring
		viaGate bool
		hit     bool
	)
	if e := p.assoc.lookup(seg, p.ring); e != nil && e.callOK {
		// The entry-number checks run on every call even on a hit — the
		// entry is not part of the cache key, exactly as on the 6180,
		// where the gate comparison is per-reference hardware. A call
		// that fails them falls through to the slow path for the fault.
		s := e.sdw
		if entry >= 0 && entry < len(s.Proc.Entries) && (!e.callGate || entry < s.Gates) {
			hit = true
			sdw = s
			target, viaGate = e.callTarget, e.callGate
			p.stats.AssocHits++
			if p.mAssocHits != nil {
				p.mAssocHits.Inc()
			}
			p.Clock.Advance(p.Cost.AssocSearch)
		}
	}
	if !hit {
		if p.assoc.Enabled() {
			p.stats.AssocMisses++
			if p.mAssocMisses != nil {
				p.mAssocMisses.Inc()
			}
			p.Clock.Advance(p.Cost.AssocSearch)
		}
		p.Clock.Advance(p.Cost.DescriptorWalk)
		sdw = p.DS.SDW(seg)
		if sdw == nil {
			return nil, p.fault(&Fault{Class: FaultSegment, Seg: seg, Ring: p.ring, Wanted: ModeExecute,
				Detail: "segment number out of descriptor range"})
		}
		var f *Fault
		target, viaGate, f = p.resolveCall(seg, sdw, entry)
		if f != nil {
			return nil, f
		}
		p.assoc.fill(seg, p.ring, sdw)
	}
	if p.depth >= MaxCallDepth {
		return nil, p.fault(&Fault{Class: FaultAccess, Seg: seg, Ring: p.ring, Wanted: ModeExecute,
			Detail: "call stack overflow"})
	}

	p.stats.Calls++
	p.Clock.Advance(p.Cost.Call)
	crossed := target != p.ring
	if crossed {
		p.stats.CrossRingCalls++
		p.Clock.Advance(p.Cost.RingCrossExtra)
	}
	if viaGate {
		p.stats.GateCalls++
		p.Clock.Advance(p.Cost.GateCheck)
	}

	caller := p.ring
	p.ring = target
	// One cached ExecContext per call depth: frames deeper than any seen
	// before grow the cache once, then every later call at that depth
	// reuses the same context (and its Out arena) allocation-free.
	if p.depth >= len(p.ctxCache) {
		p.ctxCache = append(p.ctxCache, ExecContext{})
	}
	ctx := &p.ctxCache[p.depth]
	ctx.proc, ctx.seg, ctx.entry = p, seg, entry
	p.depth++
	out, err := sdw.Proc.Entries[entry](ctx, args)
	p.depth--
	p.ring = caller
	p.Clock.Advance(p.Cost.Return)
	if crossed {
		p.Clock.Advance(p.Cost.RingCrossExtra)
	}
	return out, err
}

// CallSym invokes a symbolic reference from within segment inSeg: if the
// link has been snapped the call proceeds directly; otherwise a linkage
// fault is taken and the registered linker resolves the reference.
func (p *Processor) CallSym(inSeg SegNo, ref LinkRef, args []uint64) ([]uint64, error) {
	if t, ok := p.SnappedLink(inSeg, ref); ok {
		return p.Call(t.Seg, t.Entry, args)
	}
	p.stats.Faults[FaultLinkage]++
	if p.mFaults != nil {
		p.mFaults.Inc()
	}
	p.Clock.Advance(p.Cost.FaultOverhead)
	p.emitFault(&Fault{Class: FaultLinkage, Seg: inSeg, Ring: p.ring, Detail: ref.SegName + "$" + ref.EntryName})
	if p.Linker == nil {
		return nil, &Fault{Class: FaultLinkage, Seg: inSeg, Ring: p.ring,
			Detail: fmt.Sprintf("no linker registered to resolve %v", ref)}
	}
	ctx := &ExecContext{proc: p, seg: inSeg}
	target, err := p.Linker.HandleLinkageFault(ctx, ref)
	if err != nil {
		return nil, fmt.Errorf("linkage fault for %v: %w", ref, err)
	}
	p.SnapLink(inSeg, ref, target)
	return p.Call(target.Seg, target.Entry, args)
}

// ExecContext is the only interface simulated code has to the machine. All
// loads, stores, and calls pass through the owning processor's protection
// checks in the ring the code is executing in.
type ExecContext struct {
	proc  *Processor
	seg   SegNo
	entry int
	// out is the frame's reusable result arena; see Out.
	out []uint64
}

// Out returns an n-word result buffer owned by this call frame, for gate
// bodies to return without allocating. The buffer is reused by the next
// call at the same depth on the same processor, so callers of
// Processor.Call must consume (or copy) results before calling again —
// which every in-tree caller already does.
func (c *ExecContext) Out(n int) []uint64 {
	if cap(c.out) < n {
		c.out = make([]uint64, n)
	}
	c.out = c.out[:n]
	return c.out
}

// Ring returns the ring this code is executing in.
func (c *ExecContext) Ring() Ring { return c.proc.ring }

// Segment returns the segment number of the executing procedure.
func (c *ExecContext) Segment() SegNo { return c.seg }

// Processor exposes the underlying processor. Kernel-resident simulated code
// uses it to manipulate descriptor segments; code in outer rings can hold it
// too, but every operation it performs remains subject to ring checks.
func (c *ExecContext) Processor() *Processor { return c.proc }

// Load reads one word through the protection checks.
func (c *ExecContext) Load(seg SegNo, off int) (uint64, error) { return c.proc.Load(seg, off) }

// Store writes one word through the protection checks.
func (c *ExecContext) Store(seg SegNo, off int, val uint64) error {
	return c.proc.Store(seg, off, val)
}

// Call invokes another procedure segment through the ring-bracket rules.
func (c *ExecContext) Call(seg SegNo, entry int, args []uint64) ([]uint64, error) {
	return c.proc.Call(seg, entry, args)
}

// CallSym invokes a symbolic reference, taking a linkage fault on first use.
func (c *ExecContext) CallSym(ref LinkRef, args []uint64) ([]uint64, error) {
	return c.proc.CallSym(c.seg, ref, args)
}
