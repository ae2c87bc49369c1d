package blockstore

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/metrics"
)

// Store is the durable, content-addressed mem.BackingStore. Blocks are
// keyed by a 128-bit content address; identical pages written by different
// segments share one journal record (dedup). The live pid->address index
// and the content table are in-memory images of the journal, rebuilt by
// replay on Open — the journal is the store.
//
// Durability contract: a write is acknowledged once a Sync (or Checkpoint,
// which syncs) covers it. Reads are not journaled: ReadBlock drops the live
// mapping in memory only, so a crash may resurrect a block that had been
// paged back in. That is a harmless superset — restore trusts the
// checkpoint manifest, not the live map — and it keeps page-ins appendfree.
type Store struct {
	media   Media
	enc     recEncoder
	pending []byte // framed records not yet handed to media
	index   map[mem.PageID]ref
	content map[ref][]uint64
	ckpt    map[mem.PageID]ref
	man     []byte

	writes, reads, dedups  *metrics.Counter
	frees, syncs, appended *metrics.Counter
	batches                *metrics.Counter
}

// pendingFlushBytes bounds the store-side record buffer. Records below the
// threshold ride in memory until a Sync, Checkpoint, Close, or the next
// threshold crossing hands them to media in one Append — one media call
// and one copy per ~64 records instead of per record. Pending bytes are
// unsynced by definition: a crash was always allowed to lose them.
const pendingFlushBytes = 32 << 10

var _ mem.BackingStore = (*Store)(nil)

// Config configures Open.
type Config struct {
	// Media is the journal byte sink. Required.
	Media Media
	// Metrics, when set, receives the blockstore.* counters; when nil the
	// store uses a private registry. SetMetrics can rebind later (the
	// kernel adopts stores that were opened before it existed).
	Metrics *metrics.Registry
}

// Open replays the journal on media and returns the store plus a recovery
// report describing what replay found. A torn tail is truncated and
// reported; mid-journal corruption returns ErrCorrupt and no store.
func Open(cfg Config) (*Store, *RecoveryReport, error) {
	if cfg.Media == nil {
		return nil, nil, fmt.Errorf("blockstore: Config.Media is required")
	}
	data, err := cfg.Media.Contents()
	if err != nil {
		return nil, nil, err
	}
	st, rep, keep, err := replay(data)
	if err != nil {
		return nil, nil, err
	}
	if rep.Truncated {
		if err := cfg.Media.Truncate(keep); err != nil {
			return nil, nil, fmt.Errorf("blockstore: discarding torn tail: %w", err)
		}
	}
	s := &Store{
		media:   cfg.Media,
		index:   st.index,
		content: st.content,
		ckpt:    st.ckpt,
		man:     st.manifest,
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	s.bindMetrics(reg)
	return s, rep, nil
}

func (s *Store) bindMetrics(reg *metrics.Registry) {
	s.writes = reg.Counter("blockstore.writes")
	s.reads = reg.Counter("blockstore.reads")
	s.dedups = reg.Counter("blockstore.dedup_hits")
	s.frees = reg.Counter("blockstore.frees")
	s.syncs = reg.Counter("blockstore.syncs")
	s.appended = reg.Counter("blockstore.bytes_appended")
	s.batches = reg.Counter("blockstore.batch_writes")
}

// SetMetrics repoints the store's counters at reg. The kernel calls it at
// boot for stores opened before the kernel's registry existed.
func (s *Store) SetMetrics(reg *metrics.Registry) {
	s.bindMetrics(reg)
}

// append frames the encoder's current record into the pending buffer,
// flushing to media at the threshold.
func (s *Store) append() error {
	rec := s.enc.finish()
	s.pending = append(s.pending, rec...)
	s.appended.Add(int64(len(rec)))
	if len(s.pending) >= pendingFlushBytes {
		return s.flushPending()
	}
	return nil
}

// flushPending hands buffered records to media. It does not sync.
func (s *Store) flushPending() error {
	if len(s.pending) == 0 {
		return nil
	}
	if err := s.media.Append(s.pending); err != nil {
		return err
	}
	s.pending = s.pending[:0]
	return nil
}

// WriteBlock implements mem.BackingStore.
func (s *Store) WriteBlock(pid mem.PageID, data []uint64) error {
	r := refOf(data)
	if existing, ok := s.content[r]; ok {
		if !equalWords(existing, data) {
			// A 128-bit collision. Detected, never merged; loud because
			// the store cannot hold both contents under one address.
			return fmt.Errorf("blockstore: content address collision on %v (block %v)", r, pid)
		}
		s.enc.begin(kindMap)
		s.enc.pid(pid)
		s.enc.ref(r)
		if err := s.append(); err != nil {
			return err
		}
		s.dedups.Inc()
	} else {
		s.enc.begin(kindWrite)
		s.enc.pid(pid)
		s.enc.ref(r)
		s.enc.words(data)
		if err := s.append(); err != nil {
			return err
		}
		s.content[r] = data
	}
	s.index[pid] = r
	s.writes.Inc()
	return nil
}

// ReadBlock implements mem.BackingStore.
func (s *Store) ReadBlock(pid mem.PageID) ([]uint64, error) {
	r, ok := s.index[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %v", mem.ErrNoBlock, pid)
	}
	delete(s.index, pid)
	s.reads.Inc()
	return append([]uint64(nil), s.content[r]...), nil
}

// FreeBlock implements mem.BackingStore.
func (s *Store) FreeBlock(pid mem.PageID) error {
	if _, ok := s.index[pid]; !ok {
		return nil
	}
	s.enc.begin(kindFree)
	s.enc.pid(pid)
	if err := s.append(); err != nil {
		return err
	}
	delete(s.index, pid)
	s.frees.Inc()
	return nil
}

// BlockIDs implements mem.BackingStore.
func (s *Store) BlockIDs() []mem.PageID {
	out := make([]mem.PageID, 0, len(s.index))
	for pid := range s.index {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SegUID != out[j].SegUID {
			return out[i].SegUID < out[j].SegUID
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// Sync implements mem.BackingStore.
func (s *Store) Sync() error {
	if err := s.flushPending(); err != nil {
		return err
	}
	if err := s.media.Sync(); err != nil {
		return err
	}
	s.syncs.Inc()
	return nil
}

// Checkpoint implements mem.BackingStore: one journal record carrying the
// manifest and the full block map at the barrier, then a sync. The record
// is self-contained — replay restores both without reading anything else.
func (s *Store) Checkpoint(manifest []byte) error {
	pids := make([]mem.PageID, 0, len(s.index))
	for pid := range s.index {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool {
		if pids[i].SegUID != pids[j].SegUID {
			return pids[i].SegUID < pids[j].SegUID
		}
		return pids[i].Index < pids[j].Index
	})
	s.enc.begin(kindCheckpoint)
	s.enc.bytes(manifest)
	s.enc.u32(uint32(len(pids)))
	for _, pid := range pids {
		s.enc.pid(pid)
		s.enc.ref(s.index[pid])
	}
	if err := s.append(); err != nil {
		return err
	}
	if err := s.Sync(); err != nil {
		return err
	}
	ck := make(map[mem.PageID]ref, len(s.index))
	for pid, r := range s.index {
		ck[pid] = r
	}
	s.ckpt = ck
	s.man = append([]byte(nil), manifest...)
	return nil
}

// Manifest implements mem.BackingStore.
func (s *Store) Manifest() ([]byte, error) {
	if s.ckpt == nil {
		return nil, mem.ErrNoCheckpoint
	}
	return append([]byte(nil), s.man...), nil
}

// CheckpointBlock implements mem.BackingStore.
func (s *Store) CheckpointBlock(pid mem.PageID) ([]uint64, error) {
	if s.ckpt == nil {
		return nil, mem.ErrNoCheckpoint
	}
	r, ok := s.ckpt[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %v", mem.ErrNoBlock, pid)
	}
	return append([]uint64(nil), s.content[r]...), nil
}

// RevertToCheckpoint implements mem.BackingStore. The revert is itself a
// journal record, so a store reopened after a restore replays to the same
// reverted map.
func (s *Store) RevertToCheckpoint() error {
	if s.ckpt == nil {
		return mem.ErrNoCheckpoint
	}
	s.enc.begin(kindRevert)
	if err := s.append(); err != nil {
		return err
	}
	if err := s.Sync(); err != nil {
		return err
	}
	live := make(map[mem.PageID]ref, len(s.ckpt))
	for pid, r := range s.ckpt {
		live[pid] = r
	}
	s.index = live
	return nil
}

// Close implements mem.BackingStore. Pending records are handed to media
// (the bytes were written, the way an exiting process's buffered writes
// reach the OS) but nothing is synced: closing an unsynced store models a
// crash, and the tear decides what the unsynced tail loses.
func (s *Store) Close() error {
	if err := s.flushPending(); err != nil {
		return err
	}
	return s.media.Close()
}

// Stats is a point-in-time census for the inspector.
type Stats struct {
	Blocks        int   `json:"blocks"`         // live pid mappings
	ContentBlocks int   `json:"content_blocks"` // distinct content records
	Writes        int64 `json:"writes"`
	DedupHits     int64 `json:"dedup_hits"`
	Frees         int64 `json:"frees"`
	Syncs         int64 `json:"syncs"`
	Batches       int64 `json:"batch_writes"`
	BytesAppended int64 `json:"bytes_appended"`
	HasCheckpoint bool  `json:"has_checkpoint"`
}

// StoreStats returns the census.
func (s *Store) StoreStats() Stats {
	return Stats{
		Blocks:        len(s.index),
		ContentBlocks: len(s.content),
		Writes:        s.writes.Value(),
		DedupHits:     s.dedups.Value(),
		Frees:         s.frees.Value(),
		Syncs:         s.syncs.Value(),
		Batches:       s.batches.Value(),
		BytesAppended: s.appended.Value(),
		HasCheckpoint: s.ckpt != nil,
	}
}
