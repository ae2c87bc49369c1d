package mem

import "errors"

// This file defines the pluggable durable level at the bottom of the memory
// hierarchy. Historically the disk level was a private map inside Store —
// volatile simulation, so crash recovery could only ever damage Go data
// structures. BackingStore extracts that level behind an interface: the
// volatile MemStore remains the default, and internal/blockstore provides a
// content-addressed, journaled implementation whose bytes survive a crash.
//
// Ownership discipline (this is what keeps the hot path copy-free):
//   - WriteBlock takes ownership of the data slice; the caller must not
//     touch it afterwards. On error, ownership stays with the caller.
//   - ReadBlock returns a fresh copy the caller owns, and drops the live
//     mapping — a page lives at exactly one level, and reading a block is
//     how it moves back up the hierarchy.
//
// The checkpoint plane is part of the interface because restore semantics
// belong to the store: Checkpoint durably pairs a kernel manifest with the
// block map as of the barrier, and CheckpointBlock/RevertToCheckpoint read
// and reinstate that consistent generation after a crash.

// ErrNoBlock is returned by ReadBlock/CheckpointBlock when the store holds
// no block for the page.
var ErrNoBlock = errors.New("mem: no backing block for page")

// ErrNoCheckpoint is returned by Manifest/CheckpointBlock/RevertToCheckpoint
// when no checkpoint has been taken.
var ErrNoCheckpoint = errors.New("mem: backing store has no checkpoint")

// BlockWrite is one entry of a WriteBlocks batch.
type BlockWrite struct {
	PID  PageID
	Data []uint64
}

// BackingStore is the durable block layer under the memory hierarchy.
// Store calls it during transfers, and the kernel's checkpoint and restore
// paths call it directly; like the store, it has one driver at a time.
//
// WriteBlocks exists for the checkpoint flush (Store.FlushSegment), which
// writes each segment's materialized pages as one round trip: one journal
// record group for the durable store. ReadBlocks has no caller in the
// kernel; it stays because the benchmark in perfbench wraps the whole
// interface. Implementations that have no batching advantage can loop.
type BackingStore interface {
	// ReadBlock returns a copy of pid's block and drops the live mapping.
	// Returns ErrNoBlock if the store holds no block for pid.
	ReadBlock(pid PageID) ([]uint64, error)
	// WriteBlock records data as the durable copy of pid, replacing any
	// previous block, and takes ownership of the slice.
	WriteBlock(pid PageID, data []uint64) error
	// ReadBlocks is the batch form of ReadBlock: one round trip for all
	// pids, same copy-and-drop semantics per block. The result is indexed
	// like pids. All-or-nothing: any missing block fails the whole batch
	// with ErrNoBlock and drops no mapping.
	ReadBlocks(pids []PageID) ([][]uint64, error)
	// WriteBlocks is the batch form of WriteBlock: one round trip records
	// every entry, taking ownership of each data slice. All-or-nothing:
	// on error no entry is recorded and ownership stays with the caller.
	WriteBlocks(writes []BlockWrite) error
	// FreeBlock durably drops pid's block. Unknown pids are a no-op.
	FreeBlock(pid PageID) error
	// BlockIDs enumerates the pids with live blocks, sorted by segment
	// UID then page index.
	BlockIDs() []PageID
	// Sync is the durability barrier: when it returns, every write
	// accepted so far is acknowledged — it must survive a crash.
	Sync() error

	// Checkpoint durably records manifest together with the current block
	// map as one consistent generation, syncing first. It replaces any
	// previous checkpoint.
	Checkpoint(manifest []byte) error
	// Manifest returns the last checkpoint's manifest, or ErrNoCheckpoint.
	Manifest() ([]byte, error)
	// CheckpointBlock returns a copy of pid's block as of the last
	// checkpoint, without disturbing the live map.
	CheckpointBlock(pid PageID) ([]uint64, error)
	// RevertToCheckpoint resets the live block map to the last
	// checkpoint's generation, durably. Restore-from-manifest calls this
	// first so pages the manifest names read back with checkpoint
	// content, not whatever was written after the barrier.
	RevertToCheckpoint() error

	// Close releases the store's resources. The volatile store treats it
	// as a no-op.
	Close() error
}
