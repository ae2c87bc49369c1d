// Package kst implements the known segment table: the per-process data base
// that maps segment numbers to segments and records which segments a
// process has made known (initiated).
//
// The Bratt removal project split the original KST into a small *common*
// part that must stay in the kernel — the segment-number assignment and the
// UID association needed to build descriptors — and a *private* part (the
// reference-name space, see internal/refname) that moved to the user ring.
// This package is the common part; it is deliberately minimal, because its
// size is the numerator of the paper's "reduction by a factor of ten in the
// size of the protected code needed to manage the address space".
package kst

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Entry records one known segment of a process.
type Entry struct {
	SegNo machine.SegNo
	UID   uint64
	// Mode and Brackets record the access computed when the segment was
	// initiated; they mirror what the descriptor segment enforces.
	Mode     machine.AccessMode
	Brackets machine.Brackets
}

// Table is the common (kernel-resident) known segment table of one process.
type Table struct {
	ds *machine.DescriptorSegment
	// firstUser is the first segment number handed to initiations;
	// numbers below it are reserved for kernel segments.
	firstUser machine.SegNo
	entries   map[machine.SegNo]Entry
	byUID     map[uint64]machine.SegNo
}

// New returns a table that assigns segment numbers starting at firstUser in
// the descriptor segment ds.
func New(ds *machine.DescriptorSegment, firstUser machine.SegNo) *Table {
	return &Table{
		ds:        ds,
		firstUser: firstUser,
		entries:   make(map[machine.SegNo]Entry),
		byUID:     make(map[uint64]machine.SegNo),
	}
}

// Initiate makes the segment with the given UID known to the process: it
// assigns a free segment number, installs the descriptor, and records the
// entry. Initiating an already-known UID returns the existing segment
// number (the Multics "already known" convention) without changing access.
func (t *Table) Initiate(uid uint64, sdw machine.SDW) (machine.SegNo, bool, error) {
	if seg, ok := t.byUID[uid]; ok {
		return seg, false, nil
	}
	seg := t.ds.FirstFree(t.firstUser)
	if seg == machine.InvalidSegNo {
		return 0, false, fmt.Errorf("kst: descriptor segment full (no segment number for %#x)", uid)
	}
	if err := t.ds.Set(seg, sdw); err != nil {
		return 0, false, fmt.Errorf("kst: installing descriptor for %#x: %w", uid, err)
	}
	t.entries[seg] = Entry{SegNo: seg, UID: uid, Mode: sdw.Mode, Brackets: sdw.Brackets}
	t.byUID[uid] = seg
	return seg, true, nil
}

// Terminate makes a segment unknown: the descriptor is cleared and the
// segment number freed.
func (t *Table) Terminate(seg machine.SegNo) error {
	e, ok := t.entries[seg]
	if !ok {
		return fmt.Errorf("kst: segment %d is not known", seg)
	}
	t.ds.Clear(seg)
	delete(t.entries, seg)
	delete(t.byUID, e.UID)
	return nil
}

// SegNoForUID returns the segment number of a known UID.
func (t *Table) SegNoForUID(uid uint64) (machine.SegNo, bool) {
	seg, ok := t.byUID[uid]
	return seg, ok
}

// UIDForSegNo returns the UID behind a known segment number.
func (t *Table) UIDForSegNo(seg machine.SegNo) (uint64, bool) {
	e, ok := t.entries[seg]
	if !ok {
		return 0, false
	}
	return e.UID, true
}

// Entry returns a copy of the entry for seg.
func (t *Table) Entry(seg machine.SegNo) (Entry, bool) {
	e, ok := t.entries[seg]
	return e, ok
}

// Known returns the known entries sorted by segment number.
func (t *Table) Known() []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SegNo < out[j].SegNo })
	return out
}

// Len returns the number of known segments.
func (t *Table) Len() int { return len(t.entries) }
