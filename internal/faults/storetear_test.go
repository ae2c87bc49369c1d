package faults

import (
	"testing"

	"repro/internal/blockstore"
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/mls"
	"repro/internal/trace"
)

// fakeJournal records what the injector tore off it.
type fakeJournal struct {
	unsynced int64
	tornTo   int64
	tears    int
}

func (f *fakeJournal) UnsyncedBytes() int64 { return f.unsynced }
func (f *fakeJournal) Tear(keep int64) error {
	f.tornTo = keep
	f.tears++
	return nil
}

func TestTearJournalDeterministicAndBounded(t *testing.T) {
	var events []trace.Event
	sink := trace.SinkFunc(func(ev trace.Event) { events = append(events, ev) })
	in := NewInjector(MustCompile(Spec{Seed: 7}), nil, sink)

	j := &fakeJournal{unsynced: 1000}
	keep, err := in.TearJournal(j)
	if err != nil {
		t.Fatal(err)
	}
	if keep < 0 || keep >= j.unsynced {
		t.Fatalf("kept %d of %d unsynced bytes; a crash must lose at least one", keep, j.unsynced)
	}
	if j.tornTo != keep || j.tears != 1 {
		t.Fatalf("journal torn to %d (%d tears), want one tear to %d", j.tornTo, j.tears, keep)
	}
	if got := in.Counts().StoreTears; got != 1 {
		t.Fatalf("StoreTears = %d, want 1", got)
	}
	if len(events) != 1 || events[0].Name != PointStoreTear.String() {
		t.Fatalf("trace events = %+v, want one %s", events, PointStoreTear)
	}

	// Same seed, same tail size: the same number of bytes survives. A
	// different seed is allowed to (and here does) choose differently.
	in2 := NewInjector(MustCompile(Spec{Seed: 7}), nil, nil)
	j2 := &fakeJournal{unsynced: 1000}
	keep2, err := in2.TearJournal(j2)
	if err != nil {
		t.Fatal(err)
	}
	if keep2 != keep {
		t.Fatalf("seed 7 tore to %d then %d; the plan must be deterministic", keep, keep2)
	}

	// Nothing unsynced, nothing to lose.
	j3 := &fakeJournal{unsynced: 0}
	keep3, err := in.TearJournal(j3)
	if err != nil {
		t.Fatal(err)
	}
	if keep3 != 0 || j3.tornTo != 0 {
		t.Fatalf("tear of an all-synced journal kept %d, want 0", keep3)
	}
}

// CrashStorage against real journal bytes: synced records survive the
// tear, the unsynced tail is damaged, replay recovers at a record
// boundary, and the reopened hierarchy salvages clean.
func TestCrashStorageTearsRealJournal(t *testing.T) {
	media := blockstore.NewMemMedia()
	bs, _, err := blockstore.Open(blockstore.Config{Media: media})
	if err != nil {
		t.Fatal(err)
	}
	acked := []uint64{0xACED, 1, 2, 3}
	if err := bs.WriteBlock(memPID(1, 0), append([]uint64(nil), acked...)); err != nil {
		t.Fatal(err)
	}
	if err := bs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced churn forms the tail the crash bites into.
	for i := 0; i < 8; i++ {
		if err := bs.WriteBlock(memPID(1, 1+i), []uint64{uint64(i), 7, 7, 7}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bs.Close(); err != nil { // flush to media, no sync
		t.Fatal(err)
	}
	unsynced := media.UnsyncedBytes()
	if unsynced == 0 {
		t.Fatal("no unsynced tail to crash into")
	}

	in := NewInjector(MustCompile(Spec{Seed: 1975}), nil, nil)
	var (
		bs2 *blockstore.Store
		rep *blockstore.RecoveryReport
	)
	_, salv, err := in.CrashStorage(media, func() (*fs.Hierarchy, error) {
		var oerr error
		bs2, rep, oerr = blockstore.Open(blockstore.Config{Media: media})
		if oerr != nil {
			return nil, oerr
		}
		return newCrashHier(t)
	})
	if err != nil {
		t.Fatalf("CrashStorage: %v", err)
	}
	if !salv.Clean() {
		t.Fatalf("salvage problems after storage crash: %v", salv.Problems)
	}
	// Unsynced whole records may survive the tear (a crash is allowed to
	// be lucky), but replay must land the journal exactly on the last
	// whole-record boundary it accepted.
	if media.Size() != rep.JournalSize {
		t.Fatalf("journal is %dB, recovery accepted %dB", media.Size(), rep.JournalSize)
	}
	if rep.Truncated && rep.TornBytes == 0 {
		t.Fatalf("recovery = %+v: truncated without torn bytes", rep)
	}
	got, err := bs2.ReadBlock(memPID(1, 0))
	if err != nil {
		t.Fatalf("acknowledged write lost in crash: %v", err)
	}
	for i, w := range acked {
		if got[i] != w {
			t.Fatalf("acked word %d = %#x, want %#x", i, got[i], w)
		}
	}
}

// newCrashHier builds a small hierarchy for the post-reopen salvage leg.
func newCrashHier(t *testing.T) (*fs.Hierarchy, error) {
	t.Helper()
	cfg := mem.DefaultConfig()
	cfg.CoreFrames = 64
	store, err := mem.NewStore(cfg)
	if err != nil {
		return nil, err
	}
	return fs.New(store, mls.NewLabel(mls.Unclassified), nil)
}

func memPID(uid uint64, idx int) mem.PageID { return mem.PageID{SegUID: uid, Index: idx} }
