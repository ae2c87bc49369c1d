package mem

import (
	"errors"
	"fmt"

	"repro/internal/machine"
)

// Classified errors for segment references through a PagedBacking. They
// exist so the gate error taxonomy can bucket storage references without
// string matching: a stale reference to a deleted segment is a kernel-side
// failure, an out-of-range offset is the caller's bad argument.
var (
	// ErrSegmentGone reports a reference through a backing whose segment
	// has been deleted out from under it.
	ErrSegmentGone = errors.New("mem: segment deleted")
	// ErrOutOfRange reports an offset outside the segment's length.
	ErrOutOfRange = errors.New("mem: offset outside segment")
)

// PagedBacking adapts one segment of the Store to the machine.PagedBacking
// interface. References to core-resident pages succeed directly; references
// to absent pages return machine.ErrPageAbsent so the processor can invoke
// page control and retry.
type PagedBacking struct {
	store *Store
	uid   uint64
}

var _ machine.PagedBacking = (*PagedBacking)(nil)

// NewPagedBacking returns the backing of the segment uid, which must
// exist. A segment has one backing, made at first use and shared by every
// descriptor that initiates the segment, so initiation allocates none.
func NewPagedBacking(store *Store, uid uint64) (*PagedBacking, error) {
	sp, ok := store.Segment(uid)
	if !ok {
		return nil, fmt.Errorf("mem: no segment %#x", uid)
	}
	if sp.backing == nil {
		sp.backing = &PagedBacking{store: store, uid: uid}
	}
	return sp.backing, nil
}

// UID returns the segment unique ID this backing serves.
func (b *PagedBacking) UID() uint64 { return b.uid }

func (b *PagedBacking) locate(off int) (FrameID, int, error) {
	sp, ok := b.store.Segment(b.uid)
	if !ok {
		return 0, 0, fmt.Errorf("%w: segment %#x", ErrSegmentGone, b.uid)
	}
	if length := sp.Length(); off < 0 || off >= length {
		return 0, 0, fmt.Errorf("%w: offset %d, segment %#x length %d", ErrOutOfRange, off, b.uid, length)
	}
	page := off / b.store.cfg.PageWords
	pid := PageID{SegUID: b.uid, Index: page}
	loc, err := b.store.Locate(pid)
	if err != nil {
		return 0, 0, err
	}
	if loc.Level != LevelCore {
		return 0, 0, machine.ErrPageAbsent
	}
	return loc.Frame, off % b.store.cfg.PageWords, nil
}

// PageOf implements machine.PagedBacking: the pager's tag for the segment
// is its UID.
func (b *PagedBacking) PageOf(off int) (uint64, int) {
	return b.uid, off / b.store.cfg.PageWords
}

// ReadWord implements machine.Backing.
func (b *PagedBacking) ReadWord(off int) (uint64, error) {
	f, rel, err := b.locate(off)
	if err != nil {
		return 0, err
	}
	return b.store.ReadWord(f, rel)
}

// WriteWord implements machine.Backing.
func (b *PagedBacking) WriteWord(off int, val uint64) error {
	f, rel, err := b.locate(off)
	if err != nil {
		return err
	}
	return b.store.WriteWord(f, rel, val)
}

// Length implements machine.Backing.
func (b *PagedBacking) Length() int {
	sp, ok := b.store.Segment(b.uid)
	if !ok {
		return 0
	}
	return sp.Length()
}
