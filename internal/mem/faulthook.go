package mem

import (
	"errors"
)

// This file is the store's fault-injection seam. The simulated memory
// hierarchy never fails on its own — transfers are Go slice copies — so
// recovery paths (retry-with-backoff in page control, bounded retry in
// iosys, the fs salvager) would go forever unexercised. A FaultHook
// interposes on every backing-store transfer; the deterministic
// implementation lives in internal/faults.

// IOOp identifies one backing-store transfer the hook interposes on.
type IOOp int

const (
	// OpMaterialize: zero-fill of a never-written page into a core frame.
	OpMaterialize IOOp = iota
	// OpBulkRead: bulk store -> core transfer (PageIn from LevelBulk).
	OpBulkRead
	// OpDiskRead: disk -> core transfer (PageIn from LevelDisk).
	OpDiskRead
	// OpBulkWrite: core -> bulk store eviction.
	OpBulkWrite
	// OpDiskWrite: core -> disk eviction.
	OpDiskWrite
	// OpBulkToDisk: bulk store -> disk migration.
	OpBulkToDisk
)

func (op IOOp) String() string {
	switch op {
	case OpMaterialize:
		return "materialize"
	case OpBulkRead:
		return "bulk-read"
	case OpDiskRead:
		return "disk-read"
	case OpBulkWrite:
		return "bulk-write"
	case OpDiskWrite:
		return "disk-write"
	case OpBulkToDisk:
		return "bulk-to-disk"
	default:
		return "?"
	}
}

// ErrIO is the sentinel for an injected (or, in principle, modeled)
// backing-store I/O error. The transfer it aborts leaves the store
// unchanged, so the operation is safe to retry; page control and iosys
// both do, with bounded attempts.
var ErrIO = errors.New("mem: backing store I/O error")

// FaultHook interposes on backing-store transfers. The store calls it in
// the middle of a transfer, so an implementation must not call back into
// the store.
type FaultHook interface {
	// PageIO is consulted before each transfer of pid. A non-nil error
	// (which must wrap ErrIO) aborts the transfer with no state change;
	// the store returns it to the caller verbatim.
	PageIO(op IOOp, pid PageID) error
	// PageOut observes the page data leaving core on a write-direction
	// transfer, after the transfer is committed. The hook may corrupt
	// data in place to model a torn write.
	PageOut(op IOOp, pid PageID, data []uint64)
}

// SetFaultHook installs h as the store's transfer interposer; nil
// removes it. The usual pattern installs the hook once at kernel
// construction.
func (s *Store) SetFaultHook(h FaultHook) { s.hook = h }

// checkIO consults the hook, if any, before a transfer.
func (s *Store) checkIO(op IOOp, pid PageID) error {
	if s.hook != nil {
		return s.hook.PageIO(op, pid)
	}
	return nil
}

// pageOut shows the hook, if any, the data of a committed write-direction
// transfer.
func (s *Store) pageOut(op IOOp, pid PageID, data []uint64) {
	if s.hook != nil {
		s.hook.PageOut(op, pid, data)
	}
}
