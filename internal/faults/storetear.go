package faults

import (
	"fmt"

	"repro/internal/fs"
)

// TearableJournal is the crash surface of a durable backing store's
// journal medium. Both blockstore media (in-memory and file-backed)
// satisfy it structurally; faults deliberately does not import blockstore
// — the fault plane tears bytes, it does not know what they encode.
type TearableJournal interface {
	// UnsyncedBytes is how many tail bytes a crash is allowed to damage.
	UnsyncedBytes() int64
	// Tear keeps the synced prefix plus keepUnsynced bytes of the
	// unsynced tail and discards the rest.
	Tear(keepUnsynced int64) error
}

// TearJournal simulates the storage half of a crash: some
// deterministically chosen portion of the journal's unsynced tail — from
// none of it to all but one byte — is lost. Whatever survives past the
// last whole record is a torn final record, exactly the damage journal
// replay must detect and truncate. Returns how many unsynced bytes were
// kept.
func (in *Injector) TearJournal(j TearableJournal) (int64, error) {
	unsynced := j.UnsyncedBytes()
	var keep int64
	if unsynced > 0 {
		keep = int64(in.plan.HashKey(PointStoreTear, uint64(unsynced)) % uint64(unsynced))
	}
	if err := j.Tear(keep); err != nil {
		return 0, fmt.Errorf("faults: tearing journal: %w", err)
	}
	in.counts.StoreTears++
	in.emit(PointStoreTear, uint64(unsynced), uint64(keep),
		fmt.Sprintf("journal torn: kept %d of %d unsynced bytes", keep, unsynced))
	return keep, nil
}

// CrashStorage drives the whole crash story against real bytes: the
// journal loses a seeded portion of its unsynced tail, reopen replays the
// truncated journal and restores a hierarchy from the checkpoint, and the
// restored hierarchy is then corrupted (Crash) and salvaged — the same
// repair pass CrashAndSalvage runs, but downstream of genuine torn
// storage instead of an intact in-memory tree. Returns the corruption
// count and the salvage report.
func (in *Injector) CrashStorage(j TearableJournal, reopen func() (*fs.Hierarchy, error)) (int, *fs.SalvageReport, error) {
	if _, err := in.TearJournal(j); err != nil {
		return 0, nil, err
	}
	h, err := reopen()
	if err != nil {
		return 0, nil, fmt.Errorf("faults: reopening after storage crash: %w", err)
	}
	return in.CrashAndSalvage(h)
}
