package mem

import (
	"errors"
	"sync"
	"testing"
)

// TestConcurrentStoreHammer drives PageIn/Discard/SetLength/word access,
// evictions and bulk-victim picks from many goroutines at once. Without
// the store's lock this fails under -race (concurrent map writes in the
// page tables and free lists); it must pass both plain and with -race,
// the frame pool must be conserved afterwards, and the bulk index must
// agree with the block table.
//
// Each worker does word I/O only on its private segment (a frame observed
// through a private page table cannot be raced away by another worker); the
// shared segment exercises cross-goroutine page-table contention with
// transitions only.
func TestConcurrentStoreHammer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageWords = 8
	cfg.CoreFrames = 128
	cfg.BulkBlocks = 128
	s := newStore(t, cfg)

	const (
		workers   = 8
		iters     = 400
		sharedUID = uint64(99)
	)
	if _, err := s.CreateSegment(sharedUID, 1024); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if _, err := s.CreateSegment(uint64(w+1), 1024); err != nil {
			t.Fatal(err)
		}
	}

	tolerable := func(err error) bool {
		return err == nil ||
			errors.Is(err, ErrNoFreeFrame) || errors.Is(err, ErrNoFreeBlock)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	// A bulk freer imitates the parallel pager's other process until the
	// rest are done: it picks the lowest bulk page off the index while the
	// evictor fills blocks, the workers page blocks back in, and the
	// evictor's own sweep moves blocks to disk. A pick may lose its block
	// before the move; that surfaces as "block is free". It
	// starts first, on a bulk store seeded with one page per worker, and
	// the others start once it has made its first pick.
	for w := 0; w < workers; w++ {
		f, _, err := s.PageIn(PageID{SegUID: uint64(w + 1), Index: 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.EvictToBulk(f); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	started := make(chan struct{})
	freerDone := make(chan struct{})
	go func() {
		defer close(freerDone)
		for i := 0; ; i++ {
			if b, ok := s.LowestBulkPage(); ok {
				_, _ = s.BulkToDisk(b)
			}
			if i == 0 {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			uid := uint64(w + 1)
			for i := 0; i < iters; i++ {
				own := PageID{SegUID: uid, Index: i % 16}
				f, _, err := s.PageIn(own)
				if err == nil {
					// The evictor below may race the frame away between the
					// page-in and the write; the failed write is tolerated,
					// like a faulting reference would be retried.
					_ = s.WriteWord(f, i%cfg.PageWords, uint64(i))
				} else if !tolerable(err) {
					errCh <- err
					return
				}
				shared := PageID{SegUID: sharedUID, Index: (w*7 + i) % 32}
				switch i % 5 {
				case 0:
					if _, _, err := s.PageIn(shared); !tolerable(err) {
						errCh <- err
						return
					}
				case 1:
					if err := s.Discard(shared); !tolerable(err) {
						errCh <- err
						return
					}
				case 2:
					if err := s.SetLength(sharedUID, 1024-(i%64)); !tolerable(err) {
						errCh <- err
						return
					}
				case 3:
					if err := s.Discard(own); !tolerable(err) {
						errCh <- err
						return
					}
				default:
					if _, err := s.Locate(shared); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}

	// A dedicated evictor imitates the parallel pager: scan frames, push
	// them down the hierarchy, tolerate every race outcome.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 200; round++ {
			for _, fr := range s.Frames() {
				if fr.Free || fr.Wired {
					continue
				}
				if _, _, err := s.EvictToBulk(fr.ID); !tolerable(err) {
					// Eviction may also find the frame freed between the
					// snapshot and the claim — that surfaces as a plain
					// "frame is free" error, which is fine here.
					if _, infoErr := s.FrameInfo(fr.ID); infoErr != nil {
						errCh <- err
						return
					}
				}
			}
			for _, bl := range s.Blocks() {
				if bl.Free {
					continue
				}
				if _, err := s.BulkToDisk(bl.ID); !tolerable(err) {
					if round%2 == 0 {
						continue // "block is free": lost the race after snapshot
					}
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	<-freerDone
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent op failed: %v", err)
	}

	// Conservation after quiescence: every non-free frame holds a distinct
	// page whose table points back at it, and free + occupied == total.
	occupied := 0
	seen := map[PageID]bool{}
	for _, fr := range s.Frames() {
		if fr.Free {
			continue
		}
		occupied++
		if seen[fr.PID] {
			t.Fatalf("page %v occupies two frames", fr.PID)
		}
		seen[fr.PID] = true
		loc, err := s.Locate(fr.PID)
		if err != nil || loc.Level != LevelCore || loc.Frame != fr.ID {
			t.Fatalf("frame %d holds %v but table says %+v (err %v)", fr.ID, fr.PID, loc, err)
		}
	}
	if occupied+s.FreeFrameCount() != cfg.CoreFrames {
		t.Fatalf("frame conservation violated: %d occupied + %d free != %d",
			occupied, s.FreeFrameCount(), cfg.CoreFrames)
	}
	checkBulkIndex(t, s, 0, "after the hammer")
}
