package blockstore

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/mem"
	"repro/internal/metrics"
)

// Store is the durable, content-addressed mem.BackingStore. Blocks are
// keyed by a 128-bit content address; identical pages written by different
// segments share one journal record (dedup). The live pid->address index
// and the content table are in-memory images of the journal, rebuilt by
// replay on Open — the journal is the store. The content table maps each
// address to the span of journal bytes that encodes its words (only the
// non-zero ones; see appendWords), so no block's words are held twice: a
// read decodes the span, from the pending buffer or from media.
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
	flushed int64  // journal bytes media holds; pending follows them
	index   map[mem.PageID]ref
	content map[ref]span
	ckpt    map[mem.PageID]ref
	man     []byte
	// pids is Checkpoint's buffer for the sorted live pids.
	pids []mem.PageID

	// kept holds slices WriteBlock was handed, whose words are already in
	// the journal; a read decodes into one before it allocates.
	kept [][]uint64
	// rbuf receives a span's bytes read back from media.
	rbuf []byte
	// cmp holds the encoding of words a write compares with stored
	// content: canonical encodings are equal exactly when words are.
	cmp []byte

	writes, reads, dedups  *metrics.Counter
	frees, syncs, appended *metrics.Counter
	batches                *metrics.Counter
}

// pendingFlushBytes bounds the store-side record buffer. Records ride in
// memory until a Sync, Checkpoint, Close, or a record that would carry
// the buffer past the bound hands them to media in one Append — one media
// call and one copy per few hundred records instead of per record. So no
// Append is larger than the bound, which is the allocator's largest
// small-object size class, and MemMedia's copy of a flush wastes nothing
// to rounding; a record larger than the bound goes to media alone.
// Pending bytes are unsynced by definition: a crash was always allowed to
// lose them.
const pendingFlushBytes = 32 << 10

// keptSlices bounds Store.kept. Page-outs and page-ins alternate, so a
// few dozen slices are enough to serve every read in steady state.
const keptSlices = 64

var _ mem.BackingStore = (*Store)(nil)

// Config configures Open.
type Config struct {
	// Media is the journal byte sink. Required.
	Media Media
	// Metrics receives the blockstore.* counters; when nil they belong to
	// no registry. SetMetrics can rebind later (the kernel adopts stores
	// that were opened before it existed).
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
		flushed: keep,
		index:   st.index,
		content: st.content,
		ckpt:    st.ckpt,
		man:     st.manifest,
	}
	s.SetMetrics(cfg.Metrics)
	return s, rep, nil
}

// SetMetrics points the store's counters at reg. Open calls it with
// Config.Metrics, and the kernel calls it again at boot, because a
// journal is opened before the kernel that adopts it; every other
// subsystem takes its registry in its constructor only.
func (s *Store) SetMetrics(reg *metrics.Registry) {
	s.writes = reg.Counter("blockstore.writes")
	s.reads = reg.Counter("blockstore.reads")
	s.dedups = reg.Counter("blockstore.dedup_hits")
	s.frees = reg.Counter("blockstore.frees")
	s.syncs = reg.Counter("blockstore.syncs")
	s.appended = reg.Counter("blockstore.bytes_appended")
	s.batches = reg.Counter("blockstore.batch_writes")
}

// tail is the journal offset at which the next record will start.
func (s *Store) tail() int64 { return s.flushed + int64(len(s.pending)) }

// append frames the encoder's current record into the pending buffer,
// first flushing the buffer to media when the record would carry it past
// pendingFlushBytes. A record larger than that goes to media alone.
func (s *Store) append() error {
	rec := s.enc.finish()
	s.appended.Add(int64(len(rec)))
	if len(s.pending)+len(rec) > pendingFlushBytes {
		if err := s.flushPending(); err != nil {
			return err
		}
		if len(rec) > pendingFlushBytes {
			if err := s.media.Append(rec); err != nil {
				return err
			}
			s.flushed += int64(len(rec))
			return nil
		}
	}
	s.pending = append(s.pending, rec...)
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
	s.flushed += int64(len(s.pending))
	s.pending = s.pending[:0]
	return nil
}

// spanBytes returns the journal bytes of sp: a view of the pending buffer,
// or a read from media into rbuf. They are valid until the next append or
// spanBytes call.
func (s *Store) spanBytes(sp span) ([]byte, error) {
	n := int64(sp.size)
	if sp.off >= s.flushed {
		at := sp.off - s.flushed
		return s.pending[at : at+n], nil
	}
	if int64(cap(s.rbuf)) < n {
		s.rbuf = make([]byte, n)
	}
	b := s.rbuf[:n]
	if err := s.media.ReadAt(b, sp.off); err != nil {
		return nil, err
	}
	return b, nil
}

// load decodes sp's words into a slice the caller owns: a kept slice of
// the right length when there is one, else a new one. The decode writes
// every word, so nothing of the kept slice's old words survives.
func (s *Store) load(sp span) ([]uint64, error) {
	b, err := s.spanBytes(sp)
	if err != nil {
		return nil, err
	}
	var out []uint64
	if k := len(s.kept) - 1; k >= 0 && len(s.kept[k]) == sp.n {
		out = s.kept[k]
		s.kept[k] = nil
		s.kept = s.kept[:k]
	} else {
		out = make([]uint64, sp.n)
	}
	if !decodeWords(out, b) {
		return nil, fmt.Errorf("%w: block words at offset %d do not decode", ErrCorrupt, sp.off)
	}
	return out, nil
}

// sameContent reports whether sp's words are exactly data, by comparing
// data's encoding with sp's bytes; a false answer under a matching
// address is a collision.
func (s *Store) sameContent(sp span, data []uint64) (bool, error) {
	if sp.n != len(data) {
		return false, nil
	}
	b, err := s.spanBytes(sp)
	if err != nil {
		return false, err
	}
	s.cmp = appendWords(s.cmp[:0], data)
	return bytes.Equal(b, s.cmp), nil
}

// WriteBlock implements mem.BackingStore. Once the words are encoded the
// store needs the slice only as storage, so it keeps it for a later read
// to decode into.
func (s *Store) WriteBlock(pid mem.PageID, data []uint64) error {
	r := refOf(data)
	if sp, ok := s.content[r]; ok {
		same, err := s.sameContent(sp, data)
		if err != nil {
			return err
		}
		if !same {
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
		base := s.tail()
		s.enc.begin(kindWrite)
		s.enc.pid(pid)
		s.enc.ref(r)
		at, size := s.enc.words(data)
		if err := s.append(); err != nil {
			return err
		}
		s.content[r] = span{off: base + int64(at), n: len(data), size: size}
	}
	s.index[pid] = r
	s.writes.Inc()
	if len(s.kept) < keptSlices {
		s.kept = append(s.kept, data)
	}
	return nil
}

// ReadBlock implements mem.BackingStore.
func (s *Store) ReadBlock(pid mem.PageID) ([]uint64, error) {
	r, ok := s.index[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %v", mem.ErrNoBlock, pid)
	}
	data, err := s.load(s.content[r])
	if err != nil {
		return nil, err
	}
	delete(s.index, pid)
	s.reads.Inc()
	return data, nil
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
	return sortedPIDs(make([]mem.PageID, 0, len(s.index)), s.index)
}

// sortedPIDs returns dst[:0] holding m's pids in the order every
// mem.BackingStore enumerates them: by segment UID, then page index.
func sortedPIDs(dst []mem.PageID, m map[mem.PageID]ref) []mem.PageID {
	dst = dst[:0]
	for pid := range m {
		dst = append(dst, pid)
	}
	slices.SortFunc(dst, func(a, b mem.PageID) int {
		if c := cmp.Compare(a.SegUID, b.SegUID); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	return dst
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
	s.pids = sortedPIDs(s.pids, s.index)
	s.enc.begin(kindCheckpoint)
	s.enc.bytes(manifest)
	s.enc.u32(uint32(len(s.pids)))
	for _, pid := range s.pids {
		s.enc.pid(pid)
		s.enc.ref(s.index[pid])
	}
	if err := s.append(); err != nil {
		return err
	}
	if err := s.Sync(); err != nil {
		return err
	}
	// The superseded checkpoint's map is refilled, not replaced, so a
	// checkpoint allocates no map.
	if s.ckpt == nil {
		s.ckpt = make(map[mem.PageID]ref, len(s.index))
	}
	clear(s.ckpt)
	maps.Copy(s.ckpt, s.index)
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
	return s.load(s.content[r])
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
