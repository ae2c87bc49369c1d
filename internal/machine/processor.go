package machine

import (
	"errors"
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
// harness reads them to report path lengths and fault behaviour. The
// associative memory's hits, misses and invalidations are not here: the
// machine.assoc_* counters of the processor's registry count them.
type Stats struct {
	Loads          int64
	Stores         int64
	Calls          int64
	CrossRingCalls int64
	GateCalls      int64
	// Faults counts charged faults by class.
	Faults [numFaultClasses]int64
}

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
	// strBuf is the load runs' reusable character buffer.
	strBuf []byte
	// pf names the page of the fault being handled, for the pager.
	pf PageFault
	// mAssocHits/mAssocMisses/mFaults count into the registry the
	// processor was built with, as machine.assoc_hits,
	// machine.assoc_misses and machine.faults; every processor of a
	// kernel shares them, so they aggregate across CPUs.
	mAssocHits   *metrics.Counter
	mAssocMisses *metrics.Counter
	mFaults      *metrics.Counter
}

// NewProcessor returns a processor executing in ring over ds, with an
// enabled associative memory registered on ds for invalidation, that
// counts into reg's machine.* counters.
func NewProcessor(ds *DescriptorSegment, clock *Clock, cost CostModel, ring Ring, reg *metrics.Registry) *Processor {
	p := &Processor{
		DS:           ds,
		linkage:      make(map[SegNo]map[LinkRef]LinkTarget),
		assoc:        newAssocMemory(reg.Counter("machine.assoc_invalidations")),
		mAssocHits:   reg.Counter("machine.assoc_hits"),
		mAssocMisses: reg.Counter("machine.assoc_misses"),
		mFaults:      reg.Counter("machine.faults"),
	}
	ds.attachAssoc(p.assoc)
	p.reset(clock, cost, ring)
	return p
}

// Reset makes p a fresh processor executing in ring over its own
// descriptor segment, now empty: every descriptor is cleared, every
// associative memory attached to the segment is flushed, and p's own is
// emptied. Nothing an earlier process installed survives — no
// descriptor, cached decision, snapped link, statistic, pager, linker or
// sink — so a kernel can hand a destroyed process's processor to the
// next process it creates. p keeps counting into the registry it was
// built with.
func (p *Processor) Reset(clock *Clock, cost CostModel, ring Ring) {
	p.DS.clearAll()
	p.assoc.reset()
	p.reset(clock, cost, ring)
}

// reset is the state NewProcessor and Reset share. It is one struct
// literal, so a field added later starts at its zero value instead of
// being carried over; only the descriptor segment, the associative memory
// and the storage of the linkage map (emptied), the call-frame contexts,
// the string buffer and the metrics counters are kept. A kept context
// shows a new process nothing of an old one: Call overwrites its
// argument copy and Out clears the result words it hands out.
func (p *Processor) reset(clock *Clock, cost CostModel, ring Ring) {
	clear(p.linkage)
	*p = Processor{
		DS:           p.DS,
		Clock:        clock,
		Cost:         cost,
		ring:         ring,
		linkage:      p.linkage,
		assoc:        p.assoc,
		ctxCache:     p.ctxCache,
		strBuf:       p.strBuf,
		mAssocHits:   p.mAssocHits,
		mAssocMisses: p.mAssocMisses,
		mFaults:      p.mFaults,
	}
}

// Assoc returns the processor's associative memory.
func (p *Processor) Assoc() *AssocMemory { return p.assoc }

// SetAssocEnabled turns the associative memory on or off (off models the
// 645-style full descriptor walk on every reference).
func (p *Processor) SetAssocEnabled(on bool) { p.assoc.SetEnabled(on) }

// Ring returns the current ring of execution.
func (p *Processor) Ring() Ring { return p.ring }

// Stats returns a copy of the accumulated event counts.
func (p *Processor) Stats() Stats { return p.stats }

// SetSink directs fault delivery at s: every fault the processor
// charges — including page and linkage faults that are subsequently
// handled — is recorded as a trace.Event with Stage trace.StageFault,
// stamped with the virtual cycle at delivery. A nil sink disables it.
func (p *Processor) SetSink(s trace.Sink) { p.sink = s }

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
	p.mFaults.Inc()
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
		p.mAssocHits.Inc()
		p.Clock.Advance(p.Cost.AssocSearch)
		sdw = e.sdw
		if off < 0 || off >= sdw.Backing.Length() {
			return 0, p.fault(&Fault{Class: FaultOutOfBounds, Seg: seg, Offset: off, Ring: p.ring, Wanted: want})
		}
	} else {
		if p.assoc.Enabled() {
			p.mAssocMisses.Inc()
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
		pb, ok := sdw.Backing.(PagedBacking)
		if !ok || !errors.Is(err, ErrPageAbsent) {
			return 0, err
		}
		p.pf.SegTag, p.pf.Page = pb.PageOf(off)
		p.stats.Faults[FaultPage]++
		p.mFaults.Inc()
		p.Clock.Advance(p.Cost.FaultOverhead)
		// The event carries the segment and offset, which name the page;
		// its text is formatted only if the fault goes unhandled.
		p.emitFault(&Fault{Class: FaultPage, Seg: seg, Offset: off, Ring: p.ring, Wanted: want})
		if p.Pager == nil || attempt > 0 {
			return 0, &Fault{Class: FaultPage, Seg: seg, Offset: off, Ring: p.ring, Wanted: want, Detail: p.pf.Error()}
		}
		if herr := p.Pager.HandlePageFault(&p.pf); herr != nil {
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

// WideWordError is the error of a load run that met a word wider than a
// byte where a character belongs.
type WideWordError struct {
	Seg    SegNo
	Offset int
	Word   uint64
}

func (e *WideWordError) Error() string {
	return fmt.Sprintf("machine: word %#x at segment %d offset %d is not a character", e.Word, e.Seg, e.Offset)
}

// LoadString reads the n consecutive one-byte words at off as a string,
// in one run. The first word is an ordinary checked reference. After
// it, while the associative memory holds a decision permitting the read
// and the segment is a resident CoreBacking, the remaining in-bounds
// words are copied in one loop and charged exactly as that many single
// references: an associative-memory search and a load each, with their
// hits and loads counted. Any other word (the first past the bound, or
// every word when the associative memory is off) goes through the full
// check, so faults land on the same word at the same cost. A word wider
// than a byte ends the run after it is charged, with a *WideWordError.
// The string is the run's only allocation.
func (p *Processor) LoadString(seg SegNo, off, n int) (string, error) {
	buf, err := p.LoadBytes(seg, off, n)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// LoadBytes is LoadString's run, charged the same, without the string:
// the characters are returned in the processor's buffer, which its next
// load run overwrites, so a caller that only looks them up allocates
// nothing. On an error they are the characters read before it.
func (p *Processor) LoadBytes(seg SegNo, off, n int) ([]byte, error) {
	buf, err := p.loadRun(seg, off, n, p.strBuf[:0])
	p.strBuf = buf[:0]
	return buf, err
}

// loadRun is LoadString's run: it appends the characters to buf, which
// grows only as far as the run gets.
func (p *Processor) loadRun(seg SegNo, off, n int, buf []byte) ([]byte, error) {
	for len(buf) < n {
		w, err := p.access(seg, off+len(buf), ModeRead, false, 0)
		if err != nil {
			return buf, err
		}
		if w > 0xff {
			return buf, &WideWordError{Seg: seg, Offset: off + len(buf), Word: w}
		}
		buf = append(buf, byte(w))
		cb := p.runBacking(seg, false)
		if cb == nil {
			continue
		}
		start := len(buf)
		for i := start; i < min(n, cb.n-off); i++ {
			var w uint64
			if cb.words != nil {
				w = cb.words[off+i]
			}
			if w > 0xff {
				p.chargeRun(i+1-start, false)
				return buf, &WideWordError{Seg: seg, Offset: off + i, Word: w}
			}
			buf = append(buf, byte(w))
		}
		p.chargeRun(len(buf)-start, false)
	}
	return buf, nil
}

// StoreString writes s at off, one character per word, in one run with
// LoadString's rules. It returns the number of characters stored, which
// is len(s) unless a reference faulted.
func (p *Processor) StoreString(seg SegNo, off int, s string) (int, error) {
	for i := 0; i < len(s); {
		if _, err := p.access(seg, off+i, ModeWrite, true, uint64(s[i])); err != nil {
			return i, err
		}
		i++
		cb := p.runBacking(seg, true)
		if cb == nil {
			continue
		}
		start := i
		words := cb.Words()
		for end := min(len(s), cb.n-off); i < end; i++ {
			words[off+i] = uint64(s[i])
		}
		p.chargeRun(i-start, true)
	}
	return len(s), nil
}

// runBacking returns the resident backing of seg when the associative
// memory holds a decision permitting the wanted access in the current
// ring, so a run may continue without the full check; otherwise nil.
func (p *Processor) runBacking(seg SegNo, write bool) *CoreBacking {
	e := p.assoc.lookup(seg, p.ring)
	if e == nil || (write && !e.writeOK) || (!write && !e.readOK) {
		return nil
	}
	cb, _ := e.sdw.Backing.(*CoreBacking)
	return cb
}

// chargeRun charges n in-bounds references that hit the associative
// memory, exactly as n single references through access would be.
func (p *Processor) chargeRun(n int, write bool) {
	p.mAssocHits.Add(int64(n))
	cost := p.Cost.AssocSearch
	if write {
		p.stats.Stores += int64(n)
		cost += p.Cost.Store
	} else {
		p.stats.Loads += int64(n)
		cost += p.Cost.Load
	}
	p.Clock.Advance(int64(n) * cost)
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
			p.mAssocHits.Inc()
			p.Clock.Advance(p.Cost.AssocSearch)
		}
	}
	if !hit {
		if p.assoc.Enabled() {
			p.mAssocMisses.Inc()
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
	// reuses the same context (its argument copy and Out arena)
	// allocation-free. The body sees the frame's copy of args, never the
	// caller's slice: the body is an opaque function value, so handing it
	// args would move every caller's argument list to the heap.
	if p.depth >= len(p.ctxCache) {
		p.ctxCache = append(p.ctxCache, ExecContext{})
	}
	ctx := &p.ctxCache[p.depth]
	ctx.proc, ctx.seg, ctx.entry = p, seg, entry
	ctx.args = append(ctx.args[:0], args...)
	p.depth++
	out, err := sdw.Proc.Entries[entry](ctx, ctx.args)
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
	p.mFaults.Inc()
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
	// args is the frame's copy of the caller's argument list; see Call.
	args []uint64
	// out is the frame's reusable result arena; see Out.
	out []uint64
}

// Out returns an n-word result buffer owned by this call frame, zeroed,
// for gate bodies to return without allocating. The buffer is reused by
// the next call at the same depth on the same processor, so callers of
// Processor.Call must consume (or copy) results before calling again.
func (c *ExecContext) Out(n int) []uint64 {
	if cap(c.out) < n {
		c.out = make([]uint64, n)
	}
	c.out = c.out[:n]
	clear(c.out)
	return c.out
}

// Return copies words into the frame's Out arena and returns it: the way
// a body hands back its results without allocating. Out's rule applies.
func (c *ExecContext) Return(words ...uint64) []uint64 {
	out := c.Out(len(words))
	copy(out, words)
	return out
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

// LoadString reads an n-character string from consecutive one-byte words
// through the protection checks; see Processor.LoadString.
func (c *ExecContext) LoadString(seg SegNo, off, n int) (string, error) {
	return c.proc.LoadString(seg, off, n)
}

// LoadBytes reads n characters as LoadString does into the processor's
// buffer, valid until its next load run; see Processor.LoadBytes.
func (c *ExecContext) LoadBytes(seg SegNo, off, n int) ([]byte, error) {
	return c.proc.LoadBytes(seg, off, n)
}

// StoreString writes s one character per word through the protection
// checks; see Processor.StoreString.
func (c *ExecContext) StoreString(seg SegNo, off int, s string) (int, error) {
	return c.proc.StoreString(seg, off, s)
}

// Call invokes another procedure segment through the ring-bracket rules.
func (c *ExecContext) Call(seg SegNo, entry int, args []uint64) ([]uint64, error) {
	return c.proc.Call(seg, entry, args)
}

// CallSym invokes a symbolic reference, taking a linkage fault on first use.
func (c *ExecContext) CallSym(ref LinkRef, args []uint64) ([]uint64, error) {
	return c.proc.CallSym(c.seg, ref, args)
}
