package mem

import (
	"errors"
	"fmt"
	"testing"
)

// countingStore wraps a BackingStore and counts round trips: every
// ReadBlock/WriteBlock call is one trip, every ReadBlocks/WriteBlocks call
// is one trip regardless of batch size.
type countingStore struct {
	BackingStore
	trips int
}

func (c *countingStore) ReadBlock(pid PageID) ([]uint64, error) {
	c.trips++
	return c.BackingStore.ReadBlock(pid)
}

func (c *countingStore) WriteBlock(pid PageID, data []uint64) error {
	c.trips++
	return c.BackingStore.WriteBlock(pid, data)
}

func (c *countingStore) ReadBlocks(pids []PageID) ([][]uint64, error) {
	c.trips++
	return c.BackingStore.ReadBlocks(pids)
}

func (c *countingStore) WriteBlocks(writes []BlockWrite) error {
	c.trips++
	return c.BackingStore.WriteBlocks(writes)
}

func TestMemStoreBatchAllOrNothing(t *testing.T) {
	m := NewMemStore()
	if err := m.WriteBlocks([]BlockWrite{{PID: PageID{SegUID: 2, Index: 0}, Data: []uint64{7}}}); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	if _, err := m.ReadBlocks([]PageID{{SegUID: 2, Index: 0}, {SegUID: 2, Index: 1}}); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("want ErrNoBlock, got %v", err)
	}
	if got, err := m.ReadBlocks([]PageID{{SegUID: 2, Index: 0}}); err != nil || got[0][0] != 7 {
		t.Fatalf("ReadBlocks after failed batch: %v %v", got, err)
	}
}

// fillPage materializes pid and writes a recognizable word into it.
func fillPage(t *testing.T, s *Store, pid PageID, val uint64) FrameID {
	t.Helper()
	f, _, err := s.PageIn(pid)
	if err != nil {
		t.Fatalf("PageIn %v: %v", pid, err)
	}
	if err := s.WriteWord(f, 0, val); err != nil {
		t.Fatalf("WriteWord %v: %v", pid, err)
	}
	return f
}

func TestEvictToDiskBatch(t *testing.T) {
	cfg := smallConfig()
	cfg.CoreFrames = 8
	counter := &countingStore{BackingStore: NewMemStore()}
	cfg.Backing = counter
	s := newStore(t, cfg)
	if _, err := s.CreateSegment(1, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSegment(2, 16); err != nil {
		t.Fatal(err)
	}
	var frames []FrameID
	pids := []PageID{{SegUID: 1, Index: 0}, {SegUID: 1, Index: 1}, {SegUID: 2, Index: 0}}
	for i, pid := range pids {
		frames = append(frames, fillPage(t, s, pid, uint64(100+i)))
	}
	written, cost, err := s.EvictToDiskBatch(frames)
	if err != nil {
		t.Fatalf("EvictToDiskBatch: %v", err)
	}
	if written != 3 {
		t.Fatalf("written = %d, want 3", written)
	}
	if want := batchCost(cfg.DiskWrite, 3); cost != want {
		t.Errorf("cost = %d, want %d", cost, want)
	}
	if counter.trips != 1 {
		t.Errorf("backing round trips = %d, want 1", counter.trips)
	}
	for _, pid := range pids {
		loc, err := s.Locate(pid)
		if err != nil || loc.Level != LevelDisk {
			t.Errorf("page %v at %v (err %v), want disk", pid, loc.Level, err)
		}
	}
	// Round trip the data back up, batched: one more trip.
	got, cost, err := s.PageInBatch(pids)
	if err != nil {
		t.Fatalf("PageInBatch: %v", err)
	}
	if want := batchCost(cfg.DiskRead, 3); cost != want {
		t.Errorf("page-in cost = %d, want %d", cost, want)
	}
	if counter.trips != 2 {
		t.Errorf("backing round trips = %d, want 2", counter.trips)
	}
	for i, f := range got {
		w, err := s.ReadWord(f, 0)
		if err != nil || w != uint64(100+i) {
			t.Errorf("page %v word = %d (err %v), want %d", pids[i], w, err, 100+i)
		}
	}
}

func TestEvictToDiskBatchSkipsRacedFrames(t *testing.T) {
	cfg := smallConfig()
	cfg.CoreFrames = 8
	s := newStore(t, cfg)
	if _, err := s.CreateSegment(1, 16); err != nil {
		t.Fatal(err)
	}
	f0 := fillPage(t, s, PageID{SegUID: 1, Index: 0}, 1)
	f1 := fillPage(t, s, PageID{SegUID: 1, Index: 1}, 2)
	// Frame f1 is discarded before the batch runs: a per-frame eviction
	// would see ErrBusy; the batch skips it and evicts the rest.
	if err := s.Discard(PageID{SegUID: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	written, _, err := s.EvictToDiskBatch([]FrameID{f0, f1})
	if err != nil {
		t.Fatalf("EvictToDiskBatch: %v", err)
	}
	if written != 1 {
		t.Fatalf("written = %d, want 1 (raced frame skipped)", written)
	}
}

// failingBatchStore refuses batched writes to exercise the reinstate path.
type failingBatchStore struct {
	BackingStore
}

func (f *failingBatchStore) WriteBlocks(writes []BlockWrite) error {
	return fmt.Errorf("%w: injected", ErrIO)
}

func TestEvictToDiskBatchReinstatesOnError(t *testing.T) {
	cfg := smallConfig()
	cfg.CoreFrames = 8
	cfg.Backing = &failingBatchStore{BackingStore: NewMemStore()}
	s := newStore(t, cfg)
	if _, err := s.CreateSegment(1, 16); err != nil {
		t.Fatal(err)
	}
	pid := PageID{SegUID: 1, Index: 0}
	f := fillPage(t, s, pid, 42)
	if _, _, err := s.EvictToDiskBatch([]FrameID{f}); !errors.Is(err, ErrIO) {
		t.Fatalf("want ErrIO, got %v", err)
	}
	loc, err := s.Locate(pid)
	if err != nil || loc.Level != LevelCore {
		t.Fatalf("page not reinstated in core: %v %v", loc, err)
	}
	if w, err := s.ReadWord(loc.Frame, 0); err != nil || w != 42 {
		t.Fatalf("reinstated data lost: %d %v", w, err)
	}
}

func TestPageInBatchRejectsNonDiskPages(t *testing.T) {
	cfg := smallConfig()
	s := newStore(t, cfg)
	if _, err := s.CreateSegment(1, 16); err != nil {
		t.Fatal(err)
	}
	fillPage(t, s, PageID{SegUID: 1, Index: 0}, 1) // core-resident
	if _, _, err := s.PageInBatch([]PageID{{SegUID: 1, Index: 0}}); !errors.Is(err, ErrBusy) {
		t.Fatalf("want ErrBusy for core-resident page, got %v", err)
	}
}
