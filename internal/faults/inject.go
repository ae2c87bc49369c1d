package faults

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Counts is a snapshot of how many faults the injector has landed, by
// injection point.
type Counts struct {
	MemIO            int64
	TornWrites       int64
	IntLost          int64
	IntDup           int64
	ConnResets       int64
	ConnStalls       int64
	CrashCorruptions int64
	StoreTears       int64
}

// Total sums every injected fault.
func (c Counts) Total() int64 {
	return c.MemIO + c.TornWrites + c.IntLost + c.IntDup + c.ConnResets + c.ConnStalls + c.CrashCorruptions + c.StoreTears
}

// Injector interposes a compiled Plan on the live kernel. One value
// implements every interposition contract: mem.FaultHook for the
// backing store, netattach's FaultPlane for connections, and
// WrapInterceptor for the interrupt layer; the simulated-crash driver
// lives in crash.go.
//
// Decisions key on stable entity identities (segment UID + page index,
// connection id, interrupt source) plus a per-entity occurrence number
// the injector maintains, so outcomes are independent of scheduling
// order. Because a retry advances the occurrence number, every
// injected fault is transient: at rate r a retry loop of k attempts
// fails outright only with probability r^k.
type Injector struct {
	plan  *Plan
	clock *machine.Clock
	sink  trace.Sink

	occ    map[occKey]uint64
	counts Counts
}

// occKey identifies one entity at one injection point.
type occKey struct {
	pt   Point
	a, b uint64
}

// NewInjector returns an injector applying plan. Injected faults are
// recorded into sink as trace.StageInject events stamped with clock's
// virtual cycle; both clock and sink may be nil (no stamps / no trace).
func NewInjector(plan *Plan, clock *machine.Clock, sink trace.Sink) *Injector {
	return &Injector{plan: plan, clock: clock, sink: sink, occ: make(map[occKey]uint64)}
}

// Plan returns the compiled plan the injector applies.
func (in *Injector) Plan() *Plan { return in.plan }

// Counts returns a snapshot of the injected-fault counters.
func (in *Injector) Counts() Counts { return in.counts }

// next returns the occurrence number for entity (a, b) at pt and
// advances it.
func (in *Injector) next(pt Point, a, b uint64) uint64 {
	k := occKey{pt: pt, a: a, b: b}
	n := in.occ[k]
	in.occ[k] = n + 1
	return n
}

// now reads the virtual clock, when one is attached.
func (in *Injector) now() int64 {
	if in.clock == nil {
		return 0
	}
	return in.clock.Now()
}

// emit records one injected fault into the trace spine. This is the only
// constructor of StageInject events in the tree.
func (in *Injector) emit(pt Point, subject, arg uint64, detail string) {
	if in.sink == nil {
		return
	}
	in.sink.Record(trace.Event{
		Stage:   trace.StageInject,
		Name:    pt.String(),
		Subject: subject,
		Arg:     arg,
		Outcome: trace.ClassFailed,
		At:      in.now(),
		Detail:  detail,
	})
}

// tornMask is XORed into the word a torn write corrupts.
const tornMask uint64 = 0x5a5a_5a5a_5a5a_5a5a

// PageIO implements mem.FaultHook: before each backing-store transfer,
// decide whether it fails with mem.ErrIO.
func (in *Injector) PageIO(op mem.IOOp, pid mem.PageID) error {
	n := in.next(PointMemIO, pid.SegUID, uint64(pid.Index))
	if !in.plan.Decide(PointMemIO, pid.SegUID, uint64(pid.Index), n) {
		return nil
	}
	in.counts.MemIO++
	in.emit(PointMemIO, pid.SegUID, uint64(pid.Index), fmt.Sprintf("%v on %v, occurrence %d", op, pid, n))
	return fmt.Errorf("%w: injected %v fault on %v (occurrence %d)", mem.ErrIO, op, pid, n)
}

// PageOut implements mem.FaultHook: after a committed write-direction
// transfer, decide whether the write was torn, corrupting one
// deterministically chosen word in place.
func (in *Injector) PageOut(op mem.IOOp, pid mem.PageID, data []uint64) {
	n := in.next(PointTornWrite, pid.SegUID, uint64(pid.Index))
	if len(data) == 0 || !in.plan.Decide(PointTornWrite, pid.SegUID, uint64(pid.Index), n) {
		return
	}
	w := in.plan.HashKey(PointTornWrite, pid.SegUID, uint64(pid.Index), n, 1) % uint64(len(data))
	data[w] ^= tornMask
	in.counts.TornWrites++
	in.emit(PointTornWrite, pid.SegUID, uint64(pid.Index), fmt.Sprintf("%v of %v tore word %d", op, pid, w))
}

// ConnStall implements netattach's FaultPlane: decide whether conn's
// next service pass stalls (the front-end requeues the connection
// without consuming input).
func (in *Injector) ConnStall(conn uint64) bool {
	n := in.next(PointConnStall, conn, 0)
	if !in.plan.Decide(PointConnStall, conn, 0, n) {
		return false
	}
	in.counts.ConnStalls++
	in.emit(PointConnStall, conn, n, "service pass stalled; connection requeued")
	return true
}

// ConnReset implements netattach's FaultPlane: decide whether conn's
// pending read is reset mid-flight (the front-end drains and requeues
// instead of failing the session).
func (in *Injector) ConnReset(conn uint64) bool {
	n := in.next(PointConnReset, conn, 0)
	if !in.plan.Decide(PointConnReset, conn, 0, n) {
		return false
	}
	in.counts.ConnResets++
	in.emit(PointConnReset, conn, n, "read reset mid-flight; drained and requeued")
	return true
}

// strKey folds a string into a stable 64-bit entity key.
func strKey(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
