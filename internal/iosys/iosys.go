// Package iosys implements the external I/O subsystem twice, matching the
// paper's simplification programme.
//
// The old configuration has one kernel driver per device class — terminal,
// tape, card reader, card punch, printer — each a separate body of
// privileged code, and buffers input in a fixed circular buffer that "had to
// be used over and over again, with attendant problems of old messages not
// being removed before a complete circuit of the buffer was made".
//
// The new configuration replaces all of it with a single network-attachment
// path, buffered by an "infinite" buffer built on the virtual memory: the
// buffer only ever grows (segment pages materialize on demand), so no
// message is ever overwritten. The old buffer was "really providing a
// special purpose storage management facility"; the new one reuses the
// standard one — the virtual memory.
package iosys

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/mem"
)

// Message is one unit of device or network input.
type Message struct {
	Seq  uint64
	Data uint64
}

// Buffer is the input-buffering interface both strategies implement.
type Buffer interface {
	// Put appends a message; whether it can be lost depends on strategy.
	Put(m Message) error
	// Get removes the oldest unconsumed message.
	Get() (Message, bool, error)
	// Len returns the number of unconsumed messages.
	Len() int
	// Lost returns how many messages have been destroyed unread.
	Lost() int64
}

// CircularBuffer is the old strategy: a fixed ring reused forever. When the
// producer laps the consumer, the oldest unconsumed messages are silently
// overwritten — the failure mode the paper describes.
//
// Put, Get, Len and Lost are safe for concurrent use: the network attachment
// front-end drives one buffer from many goroutines, and the lost count must
// stay exact (every overwrite counted once) under that load.
type CircularBuffer struct {
	mu    sync.Mutex
	ring  []Message
	head  int // next slot to write
	tail  int // next slot to read
	count int
	lost  int64
}

// NewCircularBuffer returns a ring of capacity n.
func NewCircularBuffer(n int) (*CircularBuffer, error) {
	if n <= 0 {
		return nil, errors.New("iosys: circular buffer capacity must be positive")
	}
	return &CircularBuffer{ring: make([]Message, n)}, nil
}

// Put implements Buffer. A full ring overwrites the oldest message.
func (c *CircularBuffer) Put(m Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == len(c.ring) {
		// Complete circuit: the oldest message is destroyed unread.
		c.tail = (c.tail + 1) % len(c.ring)
		c.count--
		c.lost++
	}
	c.ring[c.head] = m
	c.head = (c.head + 1) % len(c.ring)
	c.count++
	return nil
}

// Get implements Buffer.
func (c *CircularBuffer) Get() (Message, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == 0 {
		return Message{}, false, nil
	}
	m := c.ring[c.tail]
	c.tail = (c.tail + 1) % len(c.ring)
	c.count--
	return m, true, nil
}

// Len implements Buffer.
func (c *CircularBuffer) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Lost implements Buffer.
func (c *CircularBuffer) Lost() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lost
}

// wordsPerMessage is the buffer record size: sequence word plus data word.
const wordsPerMessage = 2

// InfiniteBuffer is the new strategy: a buffer that appears to be of
// infinite length, materialized in a virtual-memory segment that grows as
// messages arrive. Consumed pages are truly released back to the standard
// free pools (mem.Store.Discard) once the logical start passes them, so
// storage management is exactly the standard page machinery.
//
// Put, Get, Len, Lost and PagesUsed are serialized by the buffer's lock,
// which orders the operations of one buffer. The underlying *mem.Store is
// itself safe for concurrent use (lock-striped), so buffers over the same
// store use private locks.
type InfiniteBuffer struct {
	mu    sync.Mutex
	store *mem.Store
	uid   uint64
	head  int // next message index to write
	tail  int // next message index to read
	// trimmed is the first page index not yet returned to the free pools;
	// every page below it has been fully consumed and discarded.
	trimmed int
}

// NewInfiniteBuffer creates the VM-backed buffer over segment uid, which it
// creates in store. The buffer's private lock serializes its own
// operations; the store tolerates other concurrent users.
func NewInfiniteBuffer(store *mem.Store, uid uint64) (*InfiniteBuffer, error) {
	if _, err := store.CreateSegment(uid, 0); err != nil {
		return nil, fmt.Errorf("iosys: creating buffer segment: %w", err)
	}
	return &InfiniteBuffer{store: store, uid: uid}, nil
}

func (b *InfiniteBuffer) wordOf(msgIndex int) int { return msgIndex * wordsPerMessage }

// writeWord stores one word, paging the frame in on demand (the buffer IS
// the virtual memory).
// pageRetryLimit bounds the buffer's page-in retries on transient
// conditions — an injected backing-store I/O error (mem.ErrIO) or a
// frame raced away mid-transfer (mem.ErrBusy). Buffers run outside any
// process context, so the retry is immediate rather than backed off;
// the bound converts a persistent fault into an error for the caller.
const pageRetryLimit = 8

// pageInRetry is store.PageIn with bounded retry on transient errors.
func (b *InfiniteBuffer) pageInRetry(pid mem.PageID) error {
	var err error
	for attempt := 0; attempt < pageRetryLimit; attempt++ {
		if _, _, err = b.store.PageIn(pid); err == nil {
			return nil
		}
		if !errors.Is(err, mem.ErrIO) && !errors.Is(err, mem.ErrBusy) {
			return err
		}
	}
	return err
}

func (b *InfiniteBuffer) writeWord(off int, val uint64) error {
	pw := b.store.Config().PageWords
	pid := mem.PageID{SegUID: b.uid, Index: off / pw}
	loc, err := b.store.Locate(pid)
	if err != nil {
		return err
	}
	if loc.Level != mem.LevelCore {
		if err := b.pageInRetry(pid); err != nil {
			return err
		}
		loc, err = b.store.Locate(pid)
		if err != nil {
			return err
		}
	}
	return b.store.WriteWord(loc.Frame, off%pw, val)
}

func (b *InfiniteBuffer) readWord(off int) (uint64, error) {
	pw := b.store.Config().PageWords
	pid := mem.PageID{SegUID: b.uid, Index: off / pw}
	loc, err := b.store.Locate(pid)
	if err != nil {
		return 0, err
	}
	if loc.Level != mem.LevelCore {
		if err := b.pageInRetry(pid); err != nil {
			return 0, err
		}
		loc, err = b.store.Locate(pid)
		if err != nil {
			return 0, err
		}
	}
	return b.store.ReadWord(loc.Frame, off%pw)
}

// Put implements Buffer: grow the segment and append; nothing is ever
// overwritten.
func (b *InfiniteBuffer) Put(m Message) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	needWords := b.wordOf(b.head) + wordsPerMessage
	sp, ok := b.store.Segment(b.uid)
	if !ok {
		return fmt.Errorf("iosys: buffer segment %#x vanished", b.uid)
	}
	if sp.Length() < needWords {
		if err := b.store.SetLength(b.uid, needWords); err != nil {
			return err
		}
	}
	off := b.wordOf(b.head)
	if err := b.writeWord(off, m.Seq); err != nil {
		return err
	}
	if err := b.writeWord(off+1, m.Data); err != nil {
		return err
	}
	b.head++
	return nil
}

// Get implements Buffer.
func (b *InfiniteBuffer) Get() (Message, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tail == b.head {
		return Message{}, false, nil
	}
	off := b.wordOf(b.tail)
	seq, err := b.readWord(off)
	if err != nil {
		return Message{}, false, err
	}
	data, err := b.readWord(off + 1)
	if err != nil {
		return Message{}, false, err
	}
	b.tail++
	b.trim()
	return Message{Seq: seq, Data: data}, true, nil
}

// trim returns fully-consumed pages to the free pools. When the buffer
// drains completely it additionally skips the logical cursor forward to the
// next page boundary so the partially-consumed current page can be released
// too: an idle buffer holds no storage at all. Called with the lock held.
func (b *InfiniteBuffer) trim() {
	pw := b.store.Config().PageWords
	if b.tail == b.head && pw%wordsPerMessage == 0 && b.wordOf(b.tail)%pw != 0 {
		next := ((b.wordOf(b.tail) + pw - 1) / pw) * pw / wordsPerMessage
		b.head, b.tail = next, next
	}
	for b.wordOf(b.tail) >= (b.trimmed+1)*pw {
		// Discard errors are impossible here (the segment exists and the
		// page index is valid); a failure would only retain storage.
		_ = b.store.Discard(mem.PageID{SegUID: b.uid, Index: b.trimmed})
		b.trimmed++
	}
}

// Len implements Buffer.
func (b *InfiniteBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.head - b.tail
}

// Lost implements Buffer: always zero, by construction.
func (b *InfiniteBuffer) Lost() int64 { return 0 }

// PagesUsed reports how many pages of storage the buffer currently holds
// (logical span minus the consumed pages already returned to the free
// pools), for the cost side of the comparison.
func (b *InfiniteBuffer) PagesUsed() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	sp, ok := b.store.Segment(b.uid)
	if !ok {
		return 0
	}
	n := sp.NumPages(b.store.Config().PageWords) - b.trimmed
	if n < 0 {
		return 0
	}
	return n
}

// DeviceClass names one class of external I/O device the old configuration
// needed a dedicated kernel driver for.
type DeviceClass string

// The paper's list: "terminals, tape drives, card readers, card punches,
// and printers".
const (
	DevTerminal   DeviceClass = "terminal"
	DevTape       DeviceClass = "tape"
	DevCardReader DeviceClass = "card-reader"
	DevCardPunch  DeviceClass = "card-punch"
	DevPrinter    DeviceClass = "printer"
	DevNetwork    DeviceClass = "network"
)

// Driver describes one kernel I/O driver module: its device class and the
// amount of protected code it contributes to the kernel inventory.
type Driver struct {
	Class DeviceClass
	// CodeUnits approximates the driver's protected code size.
	CodeUnits int
	// Gates is the number of kernel entry points it exposes.
	Gates int
}

// LegacyDrivers returns the old configuration's per-device driver set.
func LegacyDrivers() []Driver {
	return []Driver{
		{Class: DevTerminal, CodeUnits: 14, Gates: 4},
		{Class: DevTape, CodeUnits: 10, Gates: 3},
		{Class: DevCardReader, CodeUnits: 6, Gates: 2},
		{Class: DevCardPunch, CodeUnits: 6, Gates: 2},
		{Class: DevPrinter, CodeUnits: 8, Gates: 2},
	}
}

// NetworkDriver returns the new configuration's single attachment driver.
func NetworkDriver() Driver {
	return Driver{Class: DevNetwork, CodeUnits: 12, Gates: 3}
}
