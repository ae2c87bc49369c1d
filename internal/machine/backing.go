package machine

import "fmt"

// CoreBacking is a simple always-resident segment backing, used for kernel
// data bases that are wired into primary memory and for tests. Paged
// backings live in the memory subsystem. Its storage is allocated at the
// first store: until then every word reads as zero, exactly as zeroed
// storage would, so a segment that is never written costs no memory.
type CoreBacking struct {
	n     int
	words []uint64 // nil until the first store
}

// NewCoreBacking returns a zeroed resident backing of n words.
func NewCoreBacking(n int) *CoreBacking { return &CoreBacking{n: n} }

// ReadWord returns the word at off.
func (b *CoreBacking) ReadWord(off int) (uint64, error) {
	if off < 0 || off >= b.n {
		return 0, fmt.Errorf("machine: core backing read offset %d out of range [0,%d)", off, b.n)
	}
	if b.words == nil {
		return 0, nil
	}
	return b.words[off], nil
}

// WriteWord stores val at off.
func (b *CoreBacking) WriteWord(off int, val uint64) error {
	if off < 0 || off >= b.n {
		return fmt.Errorf("machine: core backing write offset %d out of range [0,%d)", off, b.n)
	}
	b.Words()[off] = val
	return nil
}

// Length returns the backing size in words.
func (b *CoreBacking) Length() int { return b.n }

// Words exposes the raw storage for kernel-internal use (never handed to
// simulated user code, which must go through the processor checks),
// allocating it if no store has yet.
func (b *CoreBacking) Words() []uint64 {
	if b.words == nil {
		b.words = make([]uint64, b.n)
	}
	return b.words
}
