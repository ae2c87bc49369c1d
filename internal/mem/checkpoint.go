package mem

import (
	"fmt"
	"sort"
)

// Checkpoint support: the kernel's checkpoint flushes every materialized
// page through the backing store without moving it, and restore re-adopts
// segments with their pages at the disk level. Both ends live here because
// they work on the store's page tables.

// FlushSegment writes a durable copy of every materialized page of uid
// through the backing store, leaving live locations untouched, and returns
// the sorted indexes of the materialized pages. Pages already at the disk
// level are durable by definition and are not rewritten. The caller is
// responsible for the durability barrier (BackingStore.Sync or Checkpoint).
func (s *Store) FlushSegment(uid uint64) ([]int, error) {
	sp, err := s.seg(uid)
	if err != nil {
		return nil, err
	}
	// Collect every core- and bulk-resident page, then push the whole
	// segment through the backing store in one batch — one journal record
	// group per segment instead of one record per page.
	idxs := make([]int, 0, len(sp.pages))
	writes := make([]BlockWrite, 0, len(sp.pages))
	for idx, loc := range sp.pages {
		pid := PageID{SegUID: uid, Index: idx}
		var data []uint64
		switch loc.Level {
		case LevelCore:
			fr := &s.frames[loc.Frame]
			if fr.free || fr.pid != pid {
				return nil, fmt.Errorf("mem: flush of %v found frame %d inconsistent", pid, loc.Frame)
			}
			data = append([]uint64(nil), fr.data...)
		case LevelBulk:
			bl := &s.blocks[loc.Block]
			if bl.free || bl.pid != pid {
				return nil, fmt.Errorf("mem: flush of %v found block %d inconsistent", pid, loc.Block)
			}
			data = append([]uint64(nil), bl.data...)
		case LevelDisk:
			idxs = append(idxs, idx)
			continue
		default:
			continue
		}
		writes = append(writes, BlockWrite{PID: pid, Data: data})
		idxs = append(idxs, idx)
	}
	if len(writes) > 0 {
		// Deterministic batch order regardless of page-map iteration.
		sort.Slice(writes, func(i, j int) bool { return writes[i].PID.Index < writes[j].PID.Index })
		if err := s.backing.WriteBlocks(writes); err != nil {
			return nil, fmt.Errorf("mem: flush of segment %#x (%d pages): %w", uid, len(writes), err)
		}
		s.ckptFlushes.Add(int64(len(writes)))
	}
	sort.Ints(idxs)
	return idxs, nil
}

// AdoptSegment registers a segment restored from a checkpoint manifest with
// the listed pages resident at the disk level. The durable copies must
// already be present in the backing store's live map (RevertToCheckpoint
// puts them there); AdoptSegment verifies nothing — the restore path does,
// by reading the pages back.
func (s *Store) AdoptSegment(uid uint64, length int, pages []int) error {
	if length < 0 {
		return fmt.Errorf("mem: negative segment length %d", length)
	}
	numPages := (length + s.cfg.PageWords - 1) / s.cfg.PageWords
	for _, idx := range pages {
		if idx < 0 || idx >= numPages {
			return fmt.Errorf("mem: adopted page %d outside segment %#x (%d pages)", idx, uid, numPages)
		}
	}
	if _, ok := s.segs[uid]; ok {
		return fmt.Errorf("mem: segment %#x already exists", uid)
	}
	sp := &SegmentPages{UID: uid, length: length, pages: make(map[int]Location, len(pages))}
	for _, idx := range pages {
		sp.pages[idx] = Location{Level: LevelDisk}
	}
	s.segs[uid] = sp
	return nil
}
