package machine

// This file models the 6180's associative memory: a small hardware cache of
// segment descriptor words and the access decisions derived from them. The
// paper's cost argument for hardware rings rests on it — ring checks are
// cheap because the processor does not re-walk the descriptor segment on
// every reference, it consults the associative memory instead.
//
// The cache holds only POSITIVE decisions: an entry records that, for a given
// (segment number, ring) pair, the descriptor permitted read, write, or call
// at fill time. Denied accesses always take the slow path so the fault they
// raise carries the precise diagnostic of the full check.
//
// Correctness constraint (the paper's, and a real Multics bug class): a
// descriptor change must flush every cached decision derived from the old
// SDW. The descriptor segment therefore notifies each attached associative
// memory from Set and Clear; there is no way to mutate an SDW that bypasses
// the invalidation, because the sdws slice is private to this package.

// assocSlots is the number of direct-mapped cache slots. A power of two so
// the slot index is a mask. 128 slots comfortably cover the working sets of
// the experiments while still forcing occasional conflict evictions.
import "repro/internal/metrics"

const assocSlots = 128

// assocEntry is one slot of the associative memory: the decisions computed
// for (seg, ring) when the descriptor was last walked.
type assocEntry struct {
	valid bool
	seg   SegNo
	ring  Ring
	// sdw points at the live descriptor slot; it stays valid because a
	// DescriptorSegment never reallocates its sdws slice, and it is never
	// consulted after the entry is invalidated.
	sdw *SDW
	// readOK/writeOK record that a data reference of that kind passed the
	// mode and ring-bracket checks at fill time.
	readOK, writeOK bool
	// callOK records that a call from ring resolves; callTarget is the
	// ring the callee executes in and callGate whether the call must pass
	// through a declared gate entry (entry < sdw.Gates, checked per call —
	// the entry number is not part of the cache key, as on the hardware).
	callOK     bool
	callTarget Ring
	callGate   bool
}

// AssocMemory caches SDW lookups and ring-bracket/gate access decisions per
// (segment number, ring). One is attached to every Processor and registered
// with the processor's descriptor segment for invalidation.
type AssocMemory struct {
	enabled bool
	slots   [assocSlots]assocEntry
	// invalidations counts entries flushed because their descriptor was
	// rewritten or cleared (machine.assoc_invalidations).
	invalidations *metrics.Counter
}

// newAssocMemory returns an empty, enabled associative memory counting
// its invalidations in invalidations.
func newAssocMemory(invalidations *metrics.Counter) *AssocMemory {
	return &AssocMemory{enabled: true, invalidations: invalidations}
}

// reset returns a to the state newAssocMemory left it in: empty and
// enabled, still counting into the same counter.
func (a *AssocMemory) reset() { *a = AssocMemory{enabled: true, invalidations: a.invalidations} }

// Len returns the number of valid entries.
func (a *AssocMemory) Len() int {
	n := 0
	for i := range a.slots {
		if a.slots[i].valid {
			n++
		}
	}
	return n
}

// Enabled reports whether lookups consult the cache.
func (a *AssocMemory) Enabled() bool { return a.enabled }

// SetEnabled turns the cache on or off. Disabling flushes every entry, so
// re-enabling never observes decisions from before the disabled window.
func (a *AssocMemory) SetEnabled(on bool) {
	if !on {
		a.Flush()
	}
	a.enabled = on
}

func assocSlot(seg SegNo, ring Ring) int {
	return (int(seg)*NumRings + int(ring)) & (assocSlots - 1)
}

// lookup returns the cached entry for (seg, ring), or nil. It does not count
// a hit or miss — the processor counts outcomes, because an entry that does
// not cover the wanted access still sends the reference down the slow path.
func (a *AssocMemory) lookup(seg SegNo, ring Ring) *assocEntry {
	if !a.enabled {
		return nil
	}
	e := &a.slots[assocSlot(seg, ring)]
	if e.valid && e.seg == seg && e.ring == ring {
		return e
	}
	return nil
}

// fill computes and caches the access decisions for (seg, ring) from sdw,
// evicting whatever shared the slot. Only called after a successful slow-path
// check, so the entry never records a decision the descriptor walk denied.
func (a *AssocMemory) fill(seg SegNo, ring Ring, sdw *SDW) {
	if !a.enabled {
		return
	}
	e := assocEntry{valid: true, seg: seg, ring: ring, sdw: sdw}
	if sdw.Backing != nil {
		e.readOK = sdw.Mode.Has(ModeRead) && ring <= sdw.Brackets.R2
		e.writeOK = sdw.Mode.Has(ModeWrite) && ring <= sdw.Brackets.R1
	}
	if sdw.Proc != nil && sdw.Mode.Has(ModeExecute) {
		b := sdw.Brackets
		switch {
		case ring >= b.R1 && ring <= b.R2:
			e.callOK, e.callTarget, e.callGate = true, ring, false
		case ring > b.R2 && ring <= b.R3:
			e.callOK, e.callTarget, e.callGate = true, b.R2, true
		case ring < b.R1:
			e.callOK, e.callTarget, e.callGate = true, b.R1, false
		}
	}
	a.slots[assocSlot(seg, ring)] = e
}

// InvalidateSeg flushes every cached decision for seg, in any ring. The
// descriptor segment calls this from Set and Clear; it also serves a future
// selective-clear instruction (the 6180's CAMS).
func (a *AssocMemory) InvalidateSeg(seg SegNo) {
	// fill keeps (seg, ring) in slot assocSlot(seg, ring), so seg's
	// entries can only be in these NumRings slots.
	for r := Ring(0); r < NumRings; r++ {
		i := assocSlot(seg, r)
		if a.slots[i].valid && a.slots[i].seg == seg {
			a.slots[i] = assocEntry{}
			a.invalidations.Inc()
		}
	}
}

// Flush empties the entire associative memory (the 6180's CAMS-all, executed
// on descriptor-segment base switches).
func (a *AssocMemory) Flush() {
	for i := range a.slots {
		if a.slots[i].valid {
			a.slots[i] = assocEntry{}
			a.invalidations.Inc()
		}
	}
}
