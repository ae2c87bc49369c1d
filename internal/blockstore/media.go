// Package blockstore is the durable implementation of mem.BackingStore:
// content-addressed blocks recorded in an append-only, CRC-framed intent
// journal that is replayed on open. The journal never rewrites in place —
// a write appends, a free appends, a checkpoint appends — so the only
// failure a crash can produce is a torn or missing tail, which replay
// detects and truncates. Everything below the record framing is a Media:
// a byte sink with an explicit durability barrier, so tests can drop and
// tear unsynced bytes deterministically instead of pulling power cords.
//
// This is the only data-path package that may import os (check.sh lints
// the layering): every byte the kernel persists flows through here.
package blockstore

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// Media is the journal's byte sink. Append never reorders: the journal's
// byte order is the record order. Sync is the durability barrier — bytes
// appended before a Sync must survive a crash; bytes after it may vanish
// or arrive torn.
type Media interface {
	// Contents returns the entire journal, for replay at open.
	Contents() ([]byte, error)
	// ReadAt fills p with the journal bytes starting at off. The whole
	// range must lie inside the journal.
	ReadAt(p []byte, off int64) error
	// Append adds bytes at the end of the journal.
	Append(p []byte) error
	// Sync makes every appended byte durable.
	Sync() error
	// Truncate cuts the journal to n bytes; replay uses it to discard a
	// torn tail.
	Truncate(n int64) error
	// Close releases the medium.
	Close() error
}

// MemMedia is an in-memory Media for tests and experiments. It tracks the
// synced prefix so a simulated crash can tear exactly the bytes a real
// device would have been allowed to lose. The journal is a list of
// append-order chunks, one per Append: a single flat buffer would recopy
// (or worse, zero-fill on growth) the whole journal often enough to
// dominate the page-out path's wall-clock profile.
type MemMedia struct {
	chunks [][]byte
	starts []int64 // starts[i] is chunks[i]'s journal offset
	size   int64
	synced int64
}

var _ Media = (*MemMedia)(nil)

// NewMemMedia returns an empty in-memory journal medium.
func NewMemMedia() *MemMedia { return &MemMedia{} }

// Contents implements Media.
func (m *MemMedia) Contents() ([]byte, error) {
	out := make([]byte, 0, m.size)
	for _, c := range m.chunks {
		out = append(out, c...)
	}
	return out, nil
}

// ReadAt implements Media. It finds the chunk holding off by binary
// search and copies across chunk boundaries when the range spans them.
func (m *MemMedia) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > m.size {
		return fmt.Errorf("blockstore: read of %d bytes at %d outside journal of %d bytes", len(p), off, m.size)
	}
	i := sort.Search(len(m.starts), func(i int) bool { return m.starts[i] > off }) - 1
	for n := 0; n < len(p); i++ {
		n += copy(p[n:], m.chunks[i][off+int64(n)-m.starts[i]:])
	}
	return nil
}

// Append implements Media.
func (m *MemMedia) Append(p []byte) error {
	m.chunks = append(m.chunks, append([]byte(nil), p...))
	m.starts = append(m.starts, m.size)
	m.size += int64(len(p))
	return nil
}

// Sync implements Media.
func (m *MemMedia) Sync() error {
	m.synced = m.size
	return nil
}

// Truncate implements Media.
func (m *MemMedia) Truncate(n int64) error {
	if n < 0 || n > m.size {
		return fmt.Errorf("blockstore: truncate %d outside journal of %d bytes", n, m.size)
	}
	remain := n
	for i, c := range m.chunks {
		if remain >= int64(len(c)) {
			remain -= int64(len(c))
			continue
		}
		m.chunks[i] = c[:remain]
		m.chunks = m.chunks[:i+1]
		m.starts = m.starts[:i+1]
		break
	}
	m.size = n
	if m.synced > n {
		m.synced = n
	}
	return nil
}

// Close implements Media. It is a no-op: the buffer survives so the medium
// can be reopened, the way a file on disk survives its process.
func (m *MemMedia) Close() error { return nil }

// Size returns the journal length in bytes.
func (m *MemMedia) Size() int64 {
	return m.size
}

// UnsyncedBytes returns how many tail bytes a crash is allowed to damage.
func (m *MemMedia) UnsyncedBytes() int64 {
	return m.size - m.synced
}

// Tear simulates a crash: it keeps the synced prefix plus keepUnsynced
// bytes of the unsynced tail and discards the rest, exactly what a device
// that lost power mid-write leaves behind.
func (m *MemMedia) Tear(keepUnsynced int64) error {
	if keepUnsynced < 0 {
		return fmt.Errorf("blockstore: negative tear keep %d", keepUnsynced)
	}
	keep := m.synced + keepUnsynced
	if keep > m.size {
		keep = m.size
	}
	return m.Truncate(keep)
}

// FileMedia is the file-backed Media: a single append-only journal file
// with fsync as the durability barrier.
type FileMedia struct {
	f      *os.File
	size   int64
	synced int64
}

var _ Media = (*FileMedia)(nil)

// OpenFileMedia opens (creating if absent) the journal file at path.
func OpenFileMedia(path string) (*FileMedia, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockstore: open journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blockstore: stat journal: %w", err)
	}
	// Everything already on disk at open is by definition durable.
	return &FileMedia{f: f, size: st.Size(), synced: st.Size()}, nil
}

// Contents implements Media.
func (m *FileMedia) Contents() ([]byte, error) {
	buf := make([]byte, m.size)
	if _, err := m.f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("blockstore: read journal: %w", err)
	}
	return buf, nil
}

// ReadAt implements Media.
func (m *FileMedia) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > m.size {
		return fmt.Errorf("blockstore: read of %d bytes at %d outside journal of %d bytes", len(p), off, m.size)
	}
	if _, err := m.f.ReadAt(p, off); err != nil {
		return fmt.Errorf("blockstore: read journal: %w", err)
	}
	return nil
}

// Append implements Media.
func (m *FileMedia) Append(p []byte) error {
	if _, err := m.f.WriteAt(p, m.size); err != nil {
		return fmt.Errorf("blockstore: append journal: %w", err)
	}
	m.size += int64(len(p))
	return nil
}

// Sync implements Media.
func (m *FileMedia) Sync() error {
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("blockstore: sync journal: %w", err)
	}
	m.synced = m.size
	return nil
}

// Truncate implements Media.
func (m *FileMedia) Truncate(n int64) error {
	if n < 0 || n > m.size {
		return fmt.Errorf("blockstore: truncate %d outside journal of %d bytes", n, m.size)
	}
	if err := m.f.Truncate(n); err != nil {
		return fmt.Errorf("blockstore: truncate journal: %w", err)
	}
	m.size = n
	if m.synced > n {
		m.synced = n
	}
	return nil
}

// Close implements Media.
func (m *FileMedia) Close() error {
	return m.f.Close()
}

// Size returns the journal length in bytes.
func (m *FileMedia) Size() int64 {
	return m.size
}

// UnsyncedBytes returns how many tail bytes a crash is allowed to damage.
func (m *FileMedia) UnsyncedBytes() int64 {
	return m.size - m.synced
}

// Tear simulates a crash on the file journal; see MemMedia.Tear.
func (m *FileMedia) Tear(keepUnsynced int64) error {
	if keepUnsynced < 0 {
		return fmt.Errorf("blockstore: negative tear keep %d", keepUnsynced)
	}
	keep := m.synced + keepUnsynced
	if keep > m.size {
		keep = m.size
	}
	return m.Truncate(keep)
}
