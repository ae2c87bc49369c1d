package mem_test

import (
	"testing"

	"repro/internal/blockstore"
	"repro/internal/mem"
)

// TestFlushedPagesStayPinnedAfterLaterWrites lends resident pages to the
// checkpoint flush (mem.Store.FlushSegment passes each frame's and bulk
// block's own words to WriteBlocks) and then writes to both pages in
// core. The checkpoint must keep the words as of the barrier, so a
// backing that keeps a lent slice instead of its words fails here.
func TestFlushedPagesStayPinnedAfterLaterWrites(t *testing.T) {
	backings := []struct {
		name string
		open func(t *testing.T) mem.BackingStore
	}{
		{"MemStore", func(*testing.T) mem.BackingStore { return mem.NewMemStore() }},
		{"blockstore", func(t *testing.T) mem.BackingStore {
			bs, _, err := blockstore.Open(blockstore.Config{Media: blockstore.NewMemMedia()})
			if err != nil {
				t.Fatal(err)
			}
			return bs
		}},
	}
	for _, b := range backings {
		t.Run(b.name, func(t *testing.T) {
			backing := b.open(t)
			cfg := mem.DefaultConfig()
			cfg.PageWords = 4
			cfg.Backing = backing
			s, err := mem.NewStore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const uid = 7
			if _, err := s.CreateSegment(uid, 2*cfg.PageWords); err != nil {
				t.Fatal(err)
			}
			core, bulk := mem.PageID{SegUID: uid, Index: 0}, mem.PageID{SegUID: uid, Index: 1}
			for _, pid := range []mem.PageID{core, bulk} {
				f, err := s.MaterializeZero(pid)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.WriteWord(f, 0, 100+uint64(pid.Index)); err != nil {
					t.Fatal(err)
				}
			}
			loc, err := s.Locate(bulk)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.EvictToBulk(loc.Frame); err != nil {
				t.Fatal(err)
			}
			if _, err := s.FlushSegment(uid); err != nil {
				t.Fatal(err)
			}
			if err := backing.Checkpoint([]byte("barrier")); err != nil {
				t.Fatal(err)
			}
			// After the barrier both pages change in core: the bulk page
			// moves up with the very words the flush lent.
			for _, pid := range []mem.PageID{core, bulk} {
				f, _, err := s.PageIn(pid)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.WriteWord(f, 0, 999); err != nil {
					t.Fatal(err)
				}
			}
			for _, pid := range []mem.PageID{core, bulk} {
				got, err := backing.CheckpointBlock(pid)
				if err != nil {
					t.Fatal(err)
				}
				if want := 100 + uint64(pid.Index); got[0] != want {
					t.Errorf("checkpoint block %v word 0 = %d after a later write, want %d", pid, got[0], want)
				}
			}
		})
	}
}
