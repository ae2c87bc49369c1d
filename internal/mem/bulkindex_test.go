package mem

import (
	"errors"
	"math/rand"
	"testing"
)

// lowestBulkByScan is the rule the bulk index replaces: scan the block
// table for the occupied block holding the lowest-numbered page.
func lowestBulkByScan(s *Store) (BlockID, bool) {
	var best Block
	found := false
	for _, bl := range s.Blocks() {
		if bl.Free {
			continue
		}
		if !found || bl.PID.SegUID < best.PID.SegUID ||
			(bl.PID.SegUID == best.PID.SegUID && bl.PID.Index < best.PID.Index) {
			best, found = bl, true
		}
	}
	return best.ID, found
}

// checkBulkIndex fails the test unless the index names the same block as
// a brute-force scan and stays within its rebuild bound.
func checkBulkIndex(t *testing.T, s *Store, step int, op string) {
	t.Helper()
	want, wantOK := lowestBulkByScan(s)
	got, gotOK := s.LowestBulkPage()
	if got != want || gotOK != wantOK {
		t.Fatalf("step %d (%s): index says block %d (%v), scan says %d (%v)", step, op, got, gotOK, want, wantOK)
	}
	if n, bound := len(s.bulk.heap), bulkIndexSlack*len(s.blocks); n > bound {
		t.Fatalf("step %d (%s): index holds %d entries, bound %d", step, op, n, bound)
	}
}

// TestBulkIndexSkipsRefilledBlock frees the block holding the lowest
// page and refills it with a higher one: the old entry still names the
// block, and only its fill stamp shows it is stale.
func TestBulkIndexSkipsRefilledBlock(t *testing.T) {
	cfg := smallConfig()
	cfg.BulkBlocks = 3
	s := newStore(t, cfg)
	for uid := uint64(1); uid <= 2; uid++ {
		if _, err := s.CreateSegment(uid, 4*cfg.PageWords); err != nil {
			t.Fatal(err)
		}
	}
	toBulk := func(pid PageID) BlockID {
		t.Helper()
		f, _, err := s.PageIn(pid)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := s.EvictToBulk(f)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	low := toBulk(PageID{SegUID: 1, Index: 0})
	next := toBulk(PageID{SegUID: 1, Index: 1})
	toBulk(PageID{SegUID: 1, Index: 2})
	if _, _, err := s.PageIn(PageID{SegUID: 1, Index: 0}); err != nil {
		t.Fatal(err)
	}
	if refilled := toBulk(PageID{SegUID: 2, Index: 0}); refilled != low {
		t.Fatalf("the only free block was %d, but the fill took %d", low, refilled)
	}
	if got, ok := s.LowestBulkPage(); !ok || got != next {
		t.Errorf("LowestBulkPage = %d (%v), want %d holding page 1.1", got, ok, next)
	}
	checkBulkIndex(t, s, 0, "refill")
}

// TestBulkIndexMatchesScan drives a seeded mix of every operation that
// fills or frees a bulk block and checks the index against a scan of the
// block table after each step. In the second half, segment 1's page 0
// sits in the bulk store as the lowest page while the others churn, so
// stale entries pile up beneath it and only the rebuild bounds the index.
func TestBulkIndexMatchesScan(t *testing.T) {
	cfg := smallConfig()
	cfg.CoreFrames = 6
	cfg.BulkBlocks = 8
	s := newStore(t, cfg)
	const segs, pages, steps = 4, 12, 20000
	for uid := uint64(1); uid <= segs; uid++ {
		if _, err := s.CreateSegment(uid, pages*cfg.PageWords); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(19))
	low := PageID{SegUID: 1, Index: 0}
	maxLen := 0
	for step := 0; step < steps; step++ {
		pinned := step >= steps/2
		if step == steps/2 {
			if err := s.DeleteSegment(1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CreateSegment(1, pages*cfg.PageWords); err != nil {
				t.Fatal(err)
			}
			for {
				f, _, err := s.PageIn(low)
				if errors.Is(err, ErrNoFreeFrame) {
					// Free a frame; picking a free one fails, and the loop retries.
					_, _ = s.EvictToDisk(FrameID(rng.Intn(cfg.CoreFrames)))
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.EvictToBulk(f); errors.Is(err, ErrNoFreeBlock) {
					b, _ := s.LowestBulkPage()
					if _, err := s.BulkToDisk(b); err != nil {
						t.Fatal(err)
					}
					continue
				} else if err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		uid := uint64(1 + rng.Intn(segs))
		if pinned {
			uid = uint64(2 + rng.Intn(segs-1))
		}
		pid := PageID{SegUID: uid, Index: rng.Intn(pages)}
		var op string
		switch r := rng.Intn(100); {
		case r < 40:
			op = "PageIn"
			_, _, _ = s.PageIn(pid) // ErrNoFreeFrame is part of the mix
		case r < 75:
			op = "EvictToBulk"
			if loc, err := s.Locate(pid); err == nil && loc.Level == LevelCore {
				_, _, _ = s.EvictToBulk(loc.Frame) // so is ErrNoFreeBlock
			}
		case r < 90:
			op = "BulkToDisk"
			if b, ok := s.LowestBulkPage(); ok && !pinned && rng.Intn(2) == 0 {
				if _, err := s.BulkToDisk(b); err != nil {
					t.Fatalf("step %d: BulkToDisk(%d): %v", step, b, err)
				}
			} else if loc, err := s.Locate(pid); err == nil && loc.Level == LevelBulk {
				if _, err := s.BulkToDisk(loc.Block); err != nil {
					t.Fatalf("step %d: BulkToDisk(%d): %v", step, loc.Block, err)
				}
			}
		case r < 98:
			op = "Discard"
			if err := s.Discard(pid); err != nil {
				t.Fatal(err)
			}
		default:
			op = "DeleteSegment"
			if err := s.DeleteSegment(uid); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CreateSegment(uid, pages*cfg.PageWords); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(s.bulk.heap); n > maxLen {
			maxLen = n
		}
		checkBulkIndex(t, s, step, op)
	}
	if loc, err := s.Locate(low); err != nil || loc.Level != LevelBulk {
		t.Fatalf("pinned page left the bulk store: %+v, %v", loc, err)
	}
	if maxLen <= 2*cfg.BulkBlocks {
		t.Errorf("index peaked at %d entries: stale entries never piled up, so the rebuild went untested", maxLen)
	}
}
