// Package trace is the kernel-crossing trace spine: one event type, one
// sink interface, one ring buffer. Every layer that observes a
// crossing — the gatekeeper, the processor's fault delivery, the
// scheduler's dispatch loop, the network attachment front-end, and the
// fault-injection plane — records the same Event shape into the same
// spine, so a single replay transcript tells the whole story of a run,
// including exactly which virtual cycle each injected fault landed on.
//
// The package is a leaf: it imports only the standard library, so the
// machine, sched, netattach, and faults layers can all accept a
// trace.Sink uniformly without import cycles. The historical gate.Trace*
// aliases are gone; every consumer imports this package directly
// (enforced by the scripts/check.sh lint).
package trace

// Stage identifies which layer of the kernel-crossing pipeline emitted a
// trace event.
type Stage int

const (
	// StageGate: a gate entry was invoked through the gatekeeper.
	StageGate Stage = iota
	// StageFault: the processor delivered a fault.
	StageFault
	// StageSched: the scheduler dispatched a process.
	StageSched
	// StageNet: a network attachment lifecycle transition.
	StageNet
	// StageInject: the fault plane injected a deterministic fault.
	// Only internal/faults may construct events with this stage
	// (enforced by the scripts/check.sh lint).
	StageInject
	// StageMetrics: the metrics sampler emitted a periodic snapshot
	// delta.
	StageMetrics
)

func (s Stage) String() string {
	switch s {
	case StageGate:
		return "gate"
	case StageFault:
		return "fault"
	case StageSched:
		return "sched"
	case StageNet:
		return "net"
	case StageInject:
		return "inject"
	case StageMetrics:
		return "metrics"
	default:
		return "?"
	}
}

// Class is the spine's outcome taxonomy. Every error that escapes a
// crossing is classified into one of these buckets so consumers — the
// kernel-malfunction accounting, the audit suite, the trace ring — can
// reason about outcomes without matching on error strings. The
// structural classifier lives in package gate (gate.Classify), which
// knows the machine and mem error shapes; this package only defines the
// vocabulary.
type Class int

const (
	// ClassOK: the crossing succeeded.
	ClassOK Class = iota
	// ClassBadArgs: the argument list was malformed (oversized, wrong
	// arity, missing argument) and was rejected by the gatekeeper or by
	// the gate body's own validation.
	ClassBadArgs
	// ClassAccessDenied: the reference monitor refused the request (ring
	// bracket, access mode, gate, or mandatory-policy violation).
	ClassAccessDenied
	// ClassMalfunction: the supervisor itself failed — the condition the
	// paper's review activity calls a "supervisor malfunction".
	ClassMalfunction
	// ClassFailed: any other failure (no such entry, bad mode, quota
	// exceeded, ...). Its number stays 5 after the retired resource-busy
	// class 4: digests fold class numbers.
	ClassFailed Class = 5
)

// String names the class for traces and reports.
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassBadArgs:
		return "bad-args"
	case ClassAccessDenied:
		return "access-denied"
	case ClassMalfunction:
		return "kernel-malfunction"
	case ClassFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Event is one record in the kernel-crossing trace.
type Event struct {
	// Seq is the event's claim order in the ring (monotonic).
	Seq uint64
	// Stage is the pipeline layer that emitted the event.
	Stage Stage
	// Name identifies the crossing: gate name, fault class, process
	// name, lifecycle transition, or injected-fault kind.
	Name string
	// Ring is the caller's ring of execution at the crossing.
	Ring int
	// Subject identifies the actor (connection id, process ordinal,
	// segment UID, ...) where the stage has one; zero otherwise.
	Subject uint64
	// Arg carries one stage-specific operand (first gate argument,
	// request word, fault offset, page index, ...).
	Arg uint64
	// Outcome classifies how the crossing ended.
	Outcome Class
	// Cost is the virtual-time cost charged to the crossing, in vcycles.
	Cost int64
	// At is the virtual cycle at which the crossing was observed. The
	// fault plane stamps every injected fault with the clock reading so
	// a replay transcript shows exactly when each fault landed.
	At int64
	// Detail is an optional human-readable annotation.
	Detail string
}

// Sink receives trace events. This is the one interface accepted
// uniformly by machine.Processor.SetSink, sched.Scheduler.SetSink,
// netattach.Frontend.SetSink, and faults.NewInjector.
type Sink interface {
	Record(ev Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(ev Event)

// Record calls f(ev).
func (f SinkFunc) Record(ev Event) { f(ev) }

// Ring is a fixed-size ring buffer of trace events. Record stores the
// event VALUE in the next slot, so no event costs a heap allocation,
// which keeps Record off the garbage collector's books on the
// gate-dispatch hot path. Old events are overwritten once the ring wraps.
// A disabled ring drops events at the cost of one load. Like the kernel
// that owns it, a ring has one driver at a time (DESIGN.md, "One driver
// per kernel").
// The slot array is allocated lazily on the first Record: a kernel
// boots one ring per instance, and inventory-style workloads that boot
// many kernels but trace little would otherwise pay the full slot
// array's allocation and zeroing at every boot.
type Ring struct {
	size    int // capacity (power of two)
	mask    uint64
	enabled bool

	events  []Event // nil until the first Record
	written uint64  // events recorded so far; the next Seq
}

// NewRing returns an enabled ring holding at least size events
// (rounded up to a power of two; minimum 16).
func NewRing(size int) *Ring {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Ring{size: n, mask: uint64(n - 1), enabled: true}
}

// SetEnabled turns recording on or off. Disabling is how benchmarks
// measure the spine's overhead floor.
func (r *Ring) SetEnabled(on bool) {
	if r != nil {
		r.enabled = on
	}
}

// Enabled reports whether the ring is recording.
func (r *Ring) Enabled() bool { return r != nil && r.enabled }

// Record stamps ev with the next sequence number and stores it in the
// next slot. A nil or disabled ring drops the event.
func (r *Ring) Record(ev Event) {
	if r == nil || !r.enabled {
		return
	}
	if r.events == nil {
		r.events = make([]Event, r.size)
	}
	ev.Seq = r.written
	r.events[r.written&r.mask] = ev
	r.written++
}

// Written returns the number of events recorded since creation,
// including events already overwritten by wraparound.
func (r *Ring) Written() uint64 {
	if r == nil {
		return 0
	}
	return r.written
}

// Cap returns the ring capacity in events.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return r.size
}

// Snapshot copies the events still in the ring out of it, oldest first
// by sequence number.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	if r.written == 0 {
		return nil
	}
	if r.written <= uint64(r.size) {
		return append([]Event(nil), r.events[:r.written]...)
	}
	oldest := r.written & r.mask
	out := make([]Event, 0, r.size)
	out = append(out, r.events[oldest:]...)
	return append(out, r.events[:oldest]...)
}
