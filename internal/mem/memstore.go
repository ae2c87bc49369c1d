package mem

import (
	"fmt"
	"sort"
)

// MemStore is the default BackingStore: the volatile in-process map the
// disk level has always been, now behind the interface. It exists so every
// kernel that does not opt into durability pays exactly what it used to —
// a map — and so tests have a trivially correct reference
// implementation to compare the journaled store against.
//
// Slices held in the map are never mutated while mapped: WriteBlock takes
// ownership and ReadBlock hands out copies, so Checkpoint can snapshot the
// map shallowly.
type MemStore struct {
	blocks   map[PageID][]uint64
	ckpt     map[PageID][]uint64 // nil until the first Checkpoint
	manifest []byte
}

var _ BackingStore = (*MemStore)(nil)

// NewMemStore returns an empty volatile backing store.
func NewMemStore() *MemStore {
	return &MemStore{blocks: make(map[PageID][]uint64)}
}

// ReadBlock implements BackingStore.
func (m *MemStore) ReadBlock(pid PageID) ([]uint64, error) {
	data, ok := m.blocks[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoBlock, pid)
	}
	delete(m.blocks, pid)
	out := make([]uint64, len(data))
	copy(out, data)
	return out, nil
}

// WriteBlock implements BackingStore.
func (m *MemStore) WriteBlock(pid PageID, data []uint64) error {
	m.blocks[pid] = data
	return nil
}

// ReadBlocks implements BackingStore natively: the all-or-nothing check
// runs before any mapping is dropped.
func (m *MemStore) ReadBlocks(pids []PageID) ([][]uint64, error) {
	for _, pid := range pids {
		if _, ok := m.blocks[pid]; !ok {
			return nil, fmt.Errorf("%w: %v", ErrNoBlock, pid)
		}
	}
	out := make([][]uint64, len(pids))
	for i, pid := range pids {
		data := m.blocks[pid]
		delete(m.blocks, pid)
		cp := make([]uint64, len(data))
		copy(cp, data)
		out[i] = cp
	}
	return out, nil
}

// WriteBlocks implements BackingStore natively. The volatile map cannot fail mid-batch, so
// the all-or-nothing contract is trivial.
func (m *MemStore) WriteBlocks(writes []BlockWrite) error {
	for _, w := range writes {
		m.blocks[w.PID] = w.Data
	}
	return nil
}

// FreeBlock implements BackingStore.
func (m *MemStore) FreeBlock(pid PageID) error {
	delete(m.blocks, pid)
	return nil
}

// BlockIDs implements BackingStore.
func (m *MemStore) BlockIDs() []PageID {
	out := make([]PageID, 0, len(m.blocks))
	for pid := range m.blocks {
		out = append(out, pid)
	}
	sortPageIDs(out)
	return out
}

// Sync implements BackingStore. The volatile store has nothing to flush.
func (m *MemStore) Sync() error { return nil }

// Checkpoint implements BackingStore.
func (m *MemStore) Checkpoint(manifest []byte) error {
	snap := make(map[PageID][]uint64, len(m.blocks))
	for pid, data := range m.blocks {
		snap[pid] = data
	}
	m.ckpt = snap
	m.manifest = append([]byte(nil), manifest...)
	return nil
}

// Manifest implements BackingStore.
func (m *MemStore) Manifest() ([]byte, error) {
	if m.ckpt == nil {
		return nil, ErrNoCheckpoint
	}
	return append([]byte(nil), m.manifest...), nil
}

// CheckpointBlock implements BackingStore.
func (m *MemStore) CheckpointBlock(pid PageID) ([]uint64, error) {
	if m.ckpt == nil {
		return nil, ErrNoCheckpoint
	}
	data, ok := m.ckpt[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoBlock, pid)
	}
	out := make([]uint64, len(data))
	copy(out, data)
	return out, nil
}

// RevertToCheckpoint implements BackingStore.
func (m *MemStore) RevertToCheckpoint() error {
	if m.ckpt == nil {
		return ErrNoCheckpoint
	}
	live := make(map[PageID][]uint64, len(m.ckpt))
	for pid, data := range m.ckpt {
		live[pid] = data
	}
	m.blocks = live
	return nil
}

// Close implements BackingStore.
func (m *MemStore) Close() error { return nil }

// sortPageIDs orders pids by segment UID then page index — the enumeration
// order every BackingStore implementation must use.
func sortPageIDs(pids []PageID) {
	sort.Slice(pids, func(i, j int) bool {
		if pids[i].SegUID != pids[j].SegUID {
			return pids[i].SegUID < pids[j].SegUID
		}
		return pids[i].Index < pids[j].Index
	})
}
