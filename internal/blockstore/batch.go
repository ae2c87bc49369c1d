package blockstore

import (
	"fmt"
	"slices"

	"repro/internal/mem"
)

// Batched transfers: a checkpoint flushes each segment's materialized
// pages (mem.Store.FlushSegment) as ONE journal record (kindBatch)
// instead of one kindWrite/kindMap record per page — one frame, one CRC,
// one append, and at most one media flush for the whole group. Dedup
// still applies per entry: content already in the store (or earlier in
// the same batch) is recorded as a reference, not a second copy.

// batchEntry is WriteBlocks' plan for one entry: its address, and where
// its words' encoding starts in the record and its length, or at -1 when
// it is a reference to content the store (or an earlier entry) already
// holds.
type batchEntry struct {
	r        ref
	at, size int
}

// WriteBlocks implements mem.BackingStore natively. The batch is
// all-or-nothing: collisions are detected for every entry before any
// byte is encoded, and the in-memory image is updated only after the
// record is framed, so a failed batch leaves the store untouched. The
// entries' slices are only read: new content is recorded as its span in
// the record.
func (s *Store) WriteBlocks(writes []mem.BlockWrite) error {
	if len(writes) == 0 {
		return nil
	}
	plan := make([]batchEntry, 0, len(writes))
	fresh := make(map[ref]int, len(writes)) // content new in this batch: its first entry
	var dedups int64
	for i, w := range writes {
		e := batchEntry{r: refOf(w.Data), at: -1}
		var same bool
		if sp, ok := s.content[e.r]; ok {
			var err error
			if same, err = s.sameContent(sp, w.Data); err != nil {
				return err
			}
		} else if j, ok := fresh[e.r]; ok {
			same = slices.Equal(writes[j].Data, w.Data)
		} else {
			fresh[e.r] = i
			e.at = 0 // new content: encoding sets its offset
			plan = append(plan, e)
			continue
		}
		if !same {
			return fmt.Errorf("blockstore: content address collision on %v (block %v)", e.r, w.PID)
		}
		plan = append(plan, e)
		dedups++
	}
	base := s.tail()
	s.enc.begin(kindBatch)
	s.enc.u32(uint32(len(writes)))
	for i, w := range writes {
		s.enc.pid(w.PID)
		s.enc.ref(plan[i].r)
		if plan[i].at >= 0 {
			s.enc.u32(1)
			plan[i].at, plan[i].size = s.enc.words(w.Data)
		} else {
			s.enc.u32(0)
		}
	}
	if err := s.append(); err != nil {
		return err
	}
	for i, w := range writes {
		if e := plan[i]; e.at >= 0 {
			s.content[e.r] = span{off: base + int64(e.at), n: len(w.Data), size: e.size}
		}
		s.index[w.PID] = plan[i].r
	}
	s.writes.Add(int64(len(writes)))
	s.dedups.Add(dedups)
	s.batches.Inc()
	return nil
}

// ReadBlocks implements mem.BackingStore natively: every block is read
// before any live mapping is dropped, so a missing block, a pid named
// twice or a failed read drops none. Reads are not journaled, same as
// ReadBlock.
// No kernel path calls it; the benchmark in perfbench reaches it through
// the interface.
func (s *Store) ReadBlocks(pids []mem.PageID) ([][]uint64, error) {
	out := make([][]uint64, len(pids))
	for i, pid := range pids {
		r, ok := s.index[pid]
		if !ok || slices.Contains(pids[:i], pid) {
			return nil, fmt.Errorf("%w: %v", mem.ErrNoBlock, pid)
		}
		data, err := s.load(s.content[r])
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	for _, pid := range pids {
		delete(s.index, pid)
	}
	s.reads.Add(int64(len(pids)))
	return out, nil
}
