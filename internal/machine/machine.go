// Package machine simulates the processor substrate that Multics ran on:
// segmented addressing through a descriptor segment, protection rings with
// ring brackets and gates, and the fault machinery that the supervisor (and
// later the security kernel) is built upon.
//
// Two cost models are provided. Model645 mimics the Honeywell 645, where
// rings were simulated in software and a call that changed rings was far more
// expensive than a call that did not. Model6180 mimics the Honeywell 6180,
// whose hardware rings make a cross-ring call cost the same as an intra-ring
// call. The relative costs — not their absolute values — drive the paper's
// argument for moving mechanisms out of the supervisor.
package machine

import (
	"errors"
	"fmt"
)

// Ring identifies one of the eight concentric protection rings. Ring 0 is
// the most privileged (the supervisor / security kernel); ring 7 the least.
type Ring int

// Standard ring assignments used throughout the reproduction.
const (
	// KernelRing is the innermost ring where the security kernel executes.
	KernelRing Ring = 0
	// PolicyRing hosts resource-management policy code that has been
	// separated from ring-0 mechanism (the paper's policy/mechanism split).
	PolicyRing Ring = 1
	// SupervisorRing hosts demoted supervisor services (e.g. the removed
	// linker support environment) that are protected from the user but hold
	// no kernel privilege.
	SupervisorRing Ring = 2
	// UserRing is the ring in which ordinary user computations run.
	UserRing Ring = 4
	// NumRings is the number of rings implemented by the hardware.
	NumRings = 8
)

// Valid reports whether r names an implemented ring.
func (r Ring) Valid() bool { return r >= 0 && r < NumRings }

func (r Ring) String() string { return fmt.Sprintf("ring %d", int(r)) }

// SegNo is a segment number: an index into a process's descriptor segment.
// Segment numbers are per-process names for segments, handed out by the
// known segment table when a segment is initiated.
type SegNo int

// InvalidSegNo is returned by lookups that fail to find a segment.
const InvalidSegNo SegNo = -1

// AccessMode is the set of access permissions recorded in an SDW.
type AccessMode uint8

// Access mode bits.
const (
	ModeRead AccessMode = 1 << iota
	ModeWrite
	ModeExecute
)

// Has reports whether m includes all bits of want.
func (m AccessMode) Has(want AccessMode) bool { return m&want == want }

func (m AccessMode) String() string {
	buf := []byte{'-', '-', '-'}
	if m.Has(ModeRead) {
		buf[0] = 'r'
	}
	if m.Has(ModeWrite) {
		buf[1] = 'w'
	}
	if m.Has(ModeExecute) {
		buf[2] = 'e'
	}
	return string(buf)
}

// ParseMode converts a string such as "rw" or "re" into an AccessMode.
func ParseMode(s string) (AccessMode, error) {
	var m AccessMode
	for _, c := range s {
		switch c {
		case 'r':
			m |= ModeRead
		case 'w':
			m |= ModeWrite
		case 'e', 'x':
			m |= ModeExecute
		case '-':
		default:
			return 0, fmt.Errorf("machine: invalid access mode character %q", c)
		}
	}
	return m, nil
}

// Brackets are the three ring brackets (r1 <= r2 <= r3) that govern how a
// segment may be used from each ring, following the Schroeder–Saltzer ring
// hardware design:
//
//   - write permitted from ring r when r <= R1
//   - read permitted from ring r when r <= R2
//   - execute without ring change when R1 <= r <= R2
//   - call from r in (R2, R3] permitted only through a gate, switching to R2
//   - call from r < R1 switches outward to R1
type Brackets struct {
	R1, R2, R3 Ring
}

// Valid reports whether the brackets are well formed.
func (b Brackets) Valid() bool {
	return b.R1.Valid() && b.R2.Valid() && b.R3.Valid() && b.R1 <= b.R2 && b.R2 <= b.R3
}

func (b Brackets) String() string {
	return fmt.Sprintf("[%d,%d,%d]", int(b.R1), int(b.R2), int(b.R3))
}

// KernelBrackets returns brackets for a segment usable only by the kernel.
func KernelBrackets() Brackets { return Brackets{R1: 0, R2: 0, R3: 0} }

// GateBrackets returns brackets for a kernel gate segment callable from any
// ring up to and including callers.
func GateBrackets(execRing, callers Ring) Brackets {
	return Brackets{R1: execRing, R2: execRing, R3: callers}
}

// UserBrackets returns brackets for an ordinary segment of ring r.
func UserBrackets(r Ring) Brackets { return Brackets{R1: r, R2: r, R3: r} }

// Backing supplies the storage behind a segment. The memory subsystem
// provides paged backings; tests can provide simple in-core ones. A
// PagedBacking may return ErrPageAbsent, which the processor converts into
// a fault delivered to the registered pager before the access is retried.
type Backing interface {
	// ReadWord returns the word at offset off.
	ReadWord(off int) (uint64, error)
	// WriteWord stores val at offset off.
	WriteWord(off int, val uint64) error
	// Length returns the segment length in words.
	Length() int
}

// SDW is a segment descriptor word: one entry of a descriptor segment. It
// records where the segment's storage is, the permitted access modes, the
// ring brackets, and — for gate segments — how many gate entry points the
// segment exposes (calls through the gate must target entry 0..Gates-1).
type SDW struct {
	// Backing is the storage behind the segment; nil marks the descriptor
	// as unused (a directed fault on reference).
	Backing Backing
	// Mode is the permitted access.
	Mode AccessMode
	// Brackets are the ring brackets.
	Brackets Brackets
	// Gates is the number of gate entry points; zero means the segment is
	// not a gate and cannot be called from outside its execute bracket.
	Gates int
	// Proc, when non-nil, is the simulated code body of an executable
	// segment: entry i is invoked when the segment is called at entry i.
	Proc *Procedure
}

// InUse reports whether the descriptor describes a segment.
func (s *SDW) InUse() bool { return s != nil && (s.Backing != nil || s.Proc != nil) }

// DescriptorSegment is a process's table of SDWs, indexed by segment number.
// It is the hardware-interpreted heart of the protection mechanism: no
// reference to memory escapes the checks encoded here.
type DescriptorSegment struct {
	sdws []SDW
	// assocs are the associative memories caching decisions derived from
	// these SDWs. Every mutation notifies them: a stale cached descriptor
	// is an access-control hole, so invalidation is not optional.
	assocs []*AssocMemory
}

// NewDescriptorSegment returns a descriptor segment with capacity for n
// segment numbers.
func NewDescriptorSegment(n int) *DescriptorSegment {
	return &DescriptorSegment{sdws: make([]SDW, n)}
}

// Len returns the number of descriptor slots.
func (d *DescriptorSegment) Len() int { return len(d.sdws) }

// SDW returns the descriptor for seg, or nil if seg is out of range.
func (d *DescriptorSegment) SDW(seg SegNo) *SDW {
	if seg < 0 || int(seg) >= len(d.sdws) {
		return nil
	}
	return &d.sdws[seg]
}

// Set installs a descriptor for seg.
func (d *DescriptorSegment) Set(seg SegNo, sdw SDW) error {
	if seg < 0 || int(seg) >= len(d.sdws) {
		return fmt.Errorf("machine: segment number %d out of descriptor range [0,%d)", seg, len(d.sdws))
	}
	if !sdw.Brackets.Valid() {
		return fmt.Errorf("machine: invalid ring brackets %v for segment %d", sdw.Brackets, seg)
	}
	d.sdws[seg] = sdw
	d.invalidate(seg)
	return nil
}

// Clear removes the descriptor for seg.
func (d *DescriptorSegment) Clear(seg SegNo) {
	if seg >= 0 && int(seg) < len(d.sdws) {
		d.sdws[seg] = SDW{}
		d.invalidate(seg)
	}
}

// clearAll removes every descriptor and flushes every attached
// associative memory.
func (d *DescriptorSegment) clearAll() {
	clear(d.sdws)
	for _, a := range d.assocs {
		a.Flush()
	}
}

// attachAssoc registers an associative memory for invalidation on every
// descriptor mutation.
func (d *DescriptorSegment) attachAssoc(a *AssocMemory) {
	d.assocs = append(d.assocs, a)
}

func (d *DescriptorSegment) invalidate(seg SegNo) {
	for _, a := range d.assocs {
		a.InvalidateSeg(seg)
	}
}

// FirstFree returns the lowest unused segment number at or after from, or
// InvalidSegNo when the descriptor segment is full.
func (d *DescriptorSegment) FirstFree(from SegNo) SegNo {
	for i := from; int(i) < len(d.sdws); i++ {
		if !d.sdws[i].InUse() {
			return i
		}
	}
	return InvalidSegNo
}

// ErrNoDescriptor is wrapped by faults taken on references through an unused
// descriptor slot (the hardware "directed fault").
var ErrNoDescriptor = errors.New("machine: reference through unused descriptor")
