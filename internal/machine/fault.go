package machine

import (
	"errors"
	"fmt"
)

// FaultClass enumerates the fault conditions the simulated hardware can
// raise. The supervisor (or the security kernel) registers handlers for the
// recoverable classes; the unrecoverable ones terminate the offending access
// with an error that the caller observes.
type FaultClass int

// Fault classes.
const (
	// FaultAccess: the reference violated the access mode in the SDW.
	FaultAccess FaultClass = iota
	// FaultRing: the reference violated the ring brackets.
	FaultRing
	// FaultGate: a cross-ring call did not target a valid gate entry.
	FaultGate
	// FaultSegment: the descriptor slot is unused (directed fault).
	FaultSegment
	// FaultPage: the referenced page is not in primary memory.
	FaultPage
	// FaultLinkage: an unsnapped link was referenced (dynamic linking).
	FaultLinkage
	// FaultOutOfBounds: the offset exceeded the segment length.
	FaultOutOfBounds

	numFaultClasses = iota
)

func (c FaultClass) String() string {
	switch c {
	case FaultAccess:
		return "access-violation"
	case FaultRing:
		return "ring-violation"
	case FaultGate:
		return "gate-violation"
	case FaultSegment:
		return "segment-fault"
	case FaultPage:
		return "page-fault"
	case FaultLinkage:
		return "linkage-fault"
	case FaultOutOfBounds:
		return "out-of-bounds"
	default:
		return fmt.Sprintf("fault(%d)", int(c))
	}
}

// Fault describes a fault taken during a simulated reference. Fault
// implements error so unrecovered faults propagate naturally.
type Fault struct {
	// Class is the fault condition.
	Class FaultClass
	// Seg is the segment whose reference faulted.
	Seg SegNo
	// Offset is the word offset of the reference.
	Offset int
	// Ring is the ring of execution at the time of the fault.
	Ring Ring
	// Wanted is the access the reference required.
	Wanted AccessMode
	// Detail carries any extra information (e.g. the missing page index).
	Detail string
}

func (f *Fault) Error() string {
	s := fmt.Sprintf("%v on segment %d offset %d from %v", f.Class, f.Seg, f.Offset, f.Ring)
	if f.Wanted != 0 {
		s += fmt.Sprintf(" wanting %v", f.Wanted)
	}
	if f.Detail != "" {
		s += ": " + f.Detail
	}
	return s
}

// AsFault extracts a *Fault from err, if err is or wraps one.
func AsFault(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// IsFaultClass reports whether err is a fault of class c.
func IsFaultClass(err error, c FaultClass) bool {
	if f, ok := AsFault(err); ok {
		return f.Class == c
	}
	return false
}

// ErrPageAbsent is the error a PagedBacking returns when the referenced
// page is absent from primary memory. The processor converts it into a
// FaultPage fault, names the page in a PageFault it owns, invokes the
// registered pager with it, and retries the access, so a handled page
// fault allocates nothing.
var ErrPageAbsent = errors.New("machine: page absent")

// PagedBacking is a Backing whose pages may be absent from primary
// memory: a reference to an absent page returns ErrPageAbsent.
type PagedBacking interface {
	Backing
	// PageOf names the page holding offset off: the pager's tag for the
	// segment and the page index within it.
	PageOf(off int) (segTag uint64, page int)
}

// PageFault names the absent page of a page fault to the pager. The
// processor owns the one it passes and reuses it for its next fault, so
// a handler that keeps it past its return must copy it. A processor has
// at most one fault outstanding: it handles each before the access
// returns.
type PageFault struct {
	// Page is the page index within the segment.
	Page int
	// SegTag identifies the segment to the pager (the pager's own name for
	// the segment, typically its unique ID).
	SegTag uint64
}

func (p *PageFault) Error() string {
	return fmt.Sprintf("page fault: page %d of segment %#x absent", p.Page, p.SegTag)
}

// PageFaultHandler is invoked by the processor when a reference takes a page
// fault. The handler must bring the page into primary memory (possibly by
// blocking the faulting process in the simulated scheduler) or return an
// error, which aborts the access.
type PageFaultHandler interface {
	HandlePageFault(pf *PageFault) error
}

// PageFaultHandlerFunc adapts a function to the PageFaultHandler interface.
type PageFaultHandlerFunc func(pf *PageFault) error

// HandlePageFault calls f.
func (f PageFaultHandlerFunc) HandlePageFault(pf *PageFault) error { return f(pf) }

// LinkageFaultHandler is invoked when execution references an unsnapped
// link. In the baseline configuration the handler is the ring-0 linker; in
// the post-removal configuration it is the user-ring linker.
type LinkageFaultHandler interface {
	// HandleLinkageFault resolves the link named by ref for the faulting
	// execution context and returns the snapped target.
	HandleLinkageFault(ctx *ExecContext, ref LinkRef) (LinkTarget, error)
}

// LinkRef names an unsnapped link: a symbolic segment name plus an entry
// point name within it.
type LinkRef struct {
	SegName   string
	EntryName string
}

func (r LinkRef) String() string { return r.SegName + "$" + r.EntryName }

// LinkTarget is a snapped link: a segment number and entry index that the
// faulting procedure can call directly from now on.
type LinkTarget struct {
	Seg   SegNo
	Entry int
}
