package blockstore

import (
	"fmt"

	"repro/internal/mem"
)

// Batched transfers: a checkpoint flushes each segment's materialized
// pages (mem.Store.FlushSegment) as ONE journal record (kindBatch)
// instead of one kindWrite/kindMap record per page — one frame, one CRC,
// one append, and at most one media flush for the whole group. Dedup
// still applies per entry: content already in the store (or earlier in
// the same batch) is recorded as a reference, not a second copy.

// WriteBlocks implements mem.BackingStore natively. The batch is
// all-or-nothing: collisions are detected for every entry before any
// byte is encoded, and the in-memory image is updated only after the
// record is framed, so a failed batch leaves the store untouched.
func (s *Store) WriteBlocks(writes []mem.BlockWrite) error {
	if len(writes) == 0 {
		return nil
	}
	refs := make([]ref, len(writes))
	isNew := make([]bool, len(writes))
	fresh := make(map[ref][]uint64, len(writes))
	var dedups int64
	for i, w := range writes {
		r := refOf(w.Data)
		refs[i] = r
		existing, ok := s.content[r]
		if !ok {
			existing, ok = fresh[r]
		}
		if ok {
			if !equalWords(existing, w.Data) {
				return fmt.Errorf("blockstore: content address collision on %v (block %v)", r, w.PID)
			}
			dedups++
		} else {
			fresh[r] = w.Data
			isNew[i] = true
		}
	}
	s.enc.begin(kindBatch)
	s.enc.u32(uint32(len(writes)))
	for i, w := range writes {
		s.enc.pid(w.PID)
		s.enc.ref(refs[i])
		if isNew[i] {
			s.enc.u32(1)
			s.enc.words(w.Data)
		} else {
			s.enc.u32(0)
		}
	}
	if err := s.append(); err != nil {
		return err
	}
	for i, w := range writes {
		if isNew[i] {
			s.content[refs[i]] = w.Data
		}
		s.index[w.PID] = refs[i]
	}
	s.writes.Add(int64(len(writes)))
	s.dedups.Add(dedups)
	s.batches.Inc()
	return nil
}

// ReadBlocks implements mem.BackingStore natively: the all-or-nothing
// check runs before any live mapping is dropped. Reads are not journaled, same as ReadBlock.
// No kernel path calls it; the benchmark in perfbench reaches it through
// the interface.
func (s *Store) ReadBlocks(pids []mem.PageID) ([][]uint64, error) {
	for _, pid := range pids {
		if _, ok := s.index[pid]; !ok {
			return nil, fmt.Errorf("%w: %v", mem.ErrNoBlock, pid)
		}
	}
	out := make([][]uint64, len(pids))
	for i, pid := range pids {
		r := s.index[pid]
		delete(s.index, pid)
		out[i] = append([]uint64(nil), s.content[r]...)
	}
	s.reads.Add(int64(len(pids)))
	return out, nil
}
