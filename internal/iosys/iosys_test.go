package iosys

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func bufStore(t *testing.T) *mem.Store {
	t.Helper()
	cfg := mem.DefaultConfig()
	cfg.PageWords = 8
	cfg.CoreFrames = 64
	cfg.BulkBlocks = 64
	s, err := mem.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCircularBufferFIFO(t *testing.T) {
	b, err := NewCircularBuffer(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if err := b.Put(Message{Seq: i, Data: i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 3; i++ {
		m, ok, err := b.Get()
		if err != nil || !ok || m.Seq != i {
			t.Errorf("get %d = %+v, %v, %v", i, m, ok, err)
		}
	}
	if _, ok, _ := b.Get(); ok {
		t.Error("empty buffer should return no message")
	}
	if b.Lost() != 0 {
		t.Errorf("lost = %d", b.Lost())
	}
}

func TestCircularBufferOverwritesOldest(t *testing.T) {
	b, err := NewCircularBuffer(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ { // two laps past capacity
		if err := b.Put(Message{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	if b.Lost() != 2 {
		t.Errorf("lost = %d, want 2", b.Lost())
	}
	// Survivors are the newest three, in order.
	want := []uint64{2, 3, 4}
	for _, w := range want {
		m, ok, _ := b.Get()
		if !ok || m.Seq != w {
			t.Errorf("survivor = %+v, want seq %d", m, w)
		}
	}
}

func TestCircularBufferValidation(t *testing.T) {
	if _, err := NewCircularBuffer(0); err == nil {
		t.Error("zero capacity should fail")
	}
}

func TestInfiniteBufferNeverLoses(t *testing.T) {
	s := bufStore(t)
	b, err := NewInfiniteBuffer(s, 500)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := uint64(0); i < n; i++ {
		if err := b.Put(Message{Seq: i, Data: i ^ 0xff}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if b.Len() != n {
		t.Errorf("len = %d, want %d", b.Len(), n)
	}
	if b.Lost() != 0 {
		t.Errorf("lost = %d", b.Lost())
	}
	if b.PagesUsed() == 0 {
		t.Error("full buffer should have materialized pages")
	}
	for i := uint64(0); i < n; i++ {
		m, ok, err := b.Get()
		if err != nil || !ok || m.Seq != i || m.Data != i^0xff {
			t.Fatalf("get %d = %+v, %v, %v", i, m, ok, err)
		}
	}
	if _, ok, _ := b.Get(); ok {
		t.Error("drained buffer should be empty")
	}
	if got := b.PagesUsed(); got != 0 {
		t.Errorf("drained buffer holds %d pages, want 0 (consumed pages return to the free pools)", got)
	}
}

func TestInfiniteBufferInterleaved(t *testing.T) {
	s := bufStore(t)
	b, err := NewInfiniteBuffer(s, 501)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(0)
	expect := uint64(0)
	for round := 0; round < 20; round++ {
		for i := 0; i < 7; i++ {
			if err := b.Put(Message{Seq: next}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < 5; i++ {
			m, ok, err := b.Get()
			if err != nil || !ok || m.Seq != expect {
				t.Fatalf("round %d: got %+v, %v, %v; want seq %d", round, m, ok, err, expect)
			}
			expect++
		}
	}
	if b.Len() != int(next-expect) {
		t.Errorf("len = %d, want %d", b.Len(), next-expect)
	}
}

func TestInfiniteBufferDuplicateUID(t *testing.T) {
	s := bufStore(t)
	if _, err := NewInfiniteBuffer(s, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := NewInfiniteBuffer(s, 5); err == nil {
		t.Error("duplicate UID should fail")
	}
}

// A steadily consumed infinite buffer must not accumulate storage: the
// whole point of reusing the standard page machinery is that consumed pages
// go back to the free pools.
func TestInfiniteBufferTrimsConsumedPages(t *testing.T) {
	s := bufStore(t) // 8-word pages -> 4 messages per page, 64 core frames
	b, err := NewInfiniteBuffer(s, 502)
	if err != nil {
		t.Fatal(err)
	}
	// Far more traffic than core+bulk could hold if nothing were freed:
	// 2000 messages = 500 pages through a 64-frame core.
	for i := uint64(0); i < 2000; i++ {
		if err := b.Put(Message{Seq: i, Data: i}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		m, ok, err := b.Get()
		if err != nil || !ok || m.Seq != i {
			t.Fatalf("Get %d = %+v, %v, %v", i, m, ok, err)
		}
		if got := b.PagesUsed(); got > 1 {
			t.Fatalf("after message %d the buffer spans %d pages, want <= 1", i, got)
		}
	}
	if got := b.PagesUsed(); got != 0 {
		t.Errorf("idle buffer holds %d pages, want 0", got)
	}
}

// TestInfiniteBufferSteadyBurstAllocatesNothing drives bursts that fill a
// fresh page and drain it, as a session's reply buffer does: the store
// reuses the discarded page's words for the next zero-fill, so a steady
// burst allocates nothing.
func TestInfiniteBufferSteadyBurstAllocatesNothing(t *testing.T) {
	s := bufStore(t) // 8-word pages -> 4 messages per page
	b, err := NewInfiniteBuffer(s, 503)
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	burst := func() {
		for i := 0; i < 4; i++ {
			if err := b.Put(Message{Seq: seq + uint64(i), Data: 7}); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		for i := 0; i < 4; i++ {
			m, ok, err := b.Get()
			if err != nil || !ok || m.Seq != seq {
				t.Fatalf("Get = %+v, %v, %v, want seq %d", m, ok, err, seq)
			}
			seq++
		}
	}
	burst() // the first page is a new one
	if n := testing.AllocsPerRun(50, burst); n != 0 {
		t.Errorf("steady burst allocates %.0f times, want 0", n)
	}
}

func TestDriverInventory(t *testing.T) {
	legacy := LegacyDrivers()
	if len(legacy) != 5 {
		t.Fatalf("legacy drivers = %d, want 5", len(legacy))
	}
	var legacyUnits, legacyGates int
	for _, d := range legacy {
		if d.CodeUnits <= 0 || d.Gates <= 0 {
			t.Errorf("driver %s has non-positive size", d.Class)
		}
		legacyUnits += d.CodeUnits
		legacyGates += d.Gates
	}
	net := NetworkDriver()
	if net.CodeUnits >= legacyUnits {
		t.Errorf("network driver (%d units) should be smaller than the legacy set (%d)", net.CodeUnits, legacyUnits)
	}
	if net.Gates >= legacyGates {
		t.Errorf("network gates (%d) should be fewer than legacy (%d)", net.Gates, legacyGates)
	}
}

// Property: under any put/get interleaving, the infinite buffer delivers
// exactly the put sequence (no loss, no reorder, no duplication), while the
// circular buffer delivers a suffix-biased subsequence and loss equals
// puts - delivered - still-buffered.
func TestQuickBufferContracts(t *testing.T) {
	f := func(ops []bool) bool {
		s, err := mem.NewStore(mem.Config{PageWords: 8, CoreFrames: 128, BulkBlocks: 16, BulkRead: 1, BulkWrite: 1, DiskRead: 1, DiskWrite: 1})
		if err != nil {
			return false
		}
		inf, err := NewInfiniteBuffer(s, 1)
		if err != nil {
			return false
		}
		circ, err := NewCircularBuffer(4)
		if err != nil {
			return false
		}
		var seq uint64
		var infGot, circGot []uint64
		var circPuts int64
		for _, put := range ops {
			if put {
				if err := inf.Put(Message{Seq: seq}); err != nil {
					return false
				}
				if err := circ.Put(Message{Seq: seq}); err != nil {
					return false
				}
				circPuts++
				seq++
			} else {
				if m, ok, err := inf.Get(); err == nil && ok {
					infGot = append(infGot, m.Seq)
				}
				if m, ok, _ := circ.Get(); ok {
					circGot = append(circGot, m.Seq)
				}
			}
		}
		// Infinite: exact prefix of the put sequence.
		for i, v := range infGot {
			if v != uint64(i) {
				return false
			}
		}
		// Circular: strictly increasing subsequence, and accounting holds.
		for i := 1; i < len(circGot); i++ {
			if circGot[i] <= circGot[i-1] {
				return false
			}
		}
		return circPuts == int64(len(circGot))+int64(circ.Len())+circ.Lost()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
