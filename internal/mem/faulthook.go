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

// FaultHook interposes on backing-store transfers. The store calls it
// under the store's lock, so an implementation must not call back into
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

// faultHookBox wraps the interface so it can sit in an atomic.Pointer.
type faultHookBox struct{ h FaultHook }

// SetFaultHook installs h as the store's transfer interposer; nil
// removes it. Safe to call concurrently with transfers, though the
// usual pattern installs the hook once at kernel construction.
func (s *Store) SetFaultHook(h FaultHook) {
	if h == nil {
		s.hook.Store(nil)
		return
	}
	s.hook.Store(&faultHookBox{h: h})
}

// checkIO consults the hook, if any, before a transfer.
func (s *Store) checkIO(op IOOp, pid PageID) error {
	if b := s.hook.Load(); b != nil {
		return b.h.PageIO(op, pid)
	}
	return nil
}

// pageOut shows the hook, if any, the data of a committed write-direction
// transfer.
func (s *Store) pageOut(op IOOp, pid PageID, data []uint64) {
	if b := s.hook.Load(); b != nil {
		b.h.PageOut(op, pid, data)
	}
}
