package blockstore

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/metrics"
)

// equivContent is the words of content id. Ids below equivAlphabet are a
// small alphabet the sequence keeps rewriting, so most writes deduplicate.
// The id mod 8 picks a shape, so reads need slices of three lengths and
// pages hold zeros where a sparse encoding must put them back:
//
//	0  64 words, all zero (every such id is the same content)
//	1  64 words, only the first non-zero
//	2  64 words, only the last non-zero
//	3  64 words, all non-zero but word 5
//	4  the same words as 3, but word 6 is the zero one
//	5  65 words, all non-zero
//	6  64 words, all non-zero
//	7  16 words, all non-zero
func equivContent(id int) []uint64 {
	n := 64
	switch id % 8 {
	case 5:
		n = 65
	case 7:
		n = 16
	}
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = uint64(id/8+1)*0x9E3779B97F4A7C15 ^ uint64(i)
	}
	switch id % 8 {
	case 0:
		clear(ws)
	case 1:
		clear(ws[1:])
	case 2:
		clear(ws[:n-1])
	case 3:
		ws[5] = 0
	case 4:
		ws[6] = 0
	}
	return ws
}

const (
	equivAlphabet = 8
	equivOps      = 6000
	equivReopen   = 400 // ops between close-and-replay
)

// equivRun drives a Store and a mem.MemStore through one seeded sequence
// of calls and compares every result. It also models what replay rebuilds,
// since reads are not journaled: a reopened store holds the blocks read
// since they were written, and the reference is rebuilt to match.
type equivRun struct {
	t      *testing.T
	rng    *rand.Rand
	reg    *metrics.Registry // outlives each reopen, so counts add up
	bs     *Store
	ref    *mem.MemStore
	reopen func() Media // closes nothing; returns the medium to replay

	live, journaled map[mem.PageID]int // content ids
	ckpt            map[mem.PageID]int // nil until a checkpoint
	manifest        []byte

	// held is every slice the test owns that a store call returned or
	// borrowed; all of them are scribbled over after each call.
	held  [][]uint64
	fresh int
	op    int
}

func (e *equivRun) pid() mem.PageID {
	return mem.PageID{SegUID: uint64(1 + e.rng.Intn(4)), Index: e.rng.Intn(16)}
}

// contentID picks mostly from the alphabet and sometimes new content.
func (e *equivRun) contentID() int {
	if e.rng.Intn(10) < 7 {
		return e.rng.Intn(equivAlphabet)
	}
	e.fresh++
	return equivAlphabet + e.fresh
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, mem.ErrNoBlock):
		return "ErrNoBlock"
	case errors.Is(err, mem.ErrNoCheckpoint):
		return "ErrNoCheckpoint"
	default:
		return "error: " + err.Error()
	}
}

func (e *equivRun) same(what string, got, want error) {
	e.t.Helper()
	if errClass(got) != errClass(want) {
		e.t.Fatalf("op %d %s: store %s, reference %s", e.op, what, errClass(got), errClass(want))
	}
}

func (e *equivRun) sameWords(what string, got, want []uint64) {
	e.t.Helper()
	if !slices.Equal(got, want) {
		e.t.Fatalf("op %d %s: store and reference words differ (%d and %d words)", e.op, what, len(got), len(want))
	}
}

func (e *equivRun) hold(ws []uint64) {
	e.held = append(e.held, ws)
	if len(e.held) > 32 {
		e.held = e.held[1:]
	}
}

// scribble overwrites every slice the test owns, so a store that kept one
// would serve wrong words later.
func (e *equivRun) scribble() {
	for i, ws := range e.held {
		for j := range ws {
			ws[j] = uint64(e.op)<<32 | uint64(i)<<16 | uint64(j)
		}
	}
}

// slice returns words for content id that the Store may own: a held
// slice refilled, when one of the right length is there, else new ones.
func (e *equivRun) slice(id int) []uint64 {
	want := equivContent(id)
	if e.rng.Intn(2) == 0 {
		for i, ws := range e.held {
			if len(ws) == len(want) {
				e.held = slices.Delete(e.held, i, i+1)
				copy(ws, want)
				return ws
			}
		}
	}
	return want
}

func copyIDs(m map[mem.PageID]int) map[mem.PageID]int {
	out := make(map[mem.PageID]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (e *equivRun) step() {
	e.t.Helper()
	switch k := e.rng.Intn(100); {
	case k < 25:
		p, id := e.pid(), e.contentID()
		e.same("WriteBlock", e.bs.WriteBlock(p, e.slice(id)), e.ref.WriteBlock(p, equivContent(id)))
		e.live[p], e.journaled[p] = id, id
	case k < 45:
		p := e.pid()
		got, gerr := e.bs.ReadBlock(p)
		want, werr := e.ref.ReadBlock(p)
		e.same("ReadBlock", gerr, werr)
		e.sameWords("ReadBlock", got, want)
		delete(e.live, p)
		if gerr == nil {
			e.hold(got)
		}
	case k < 52:
		p := e.pid()
		e.same("FreeBlock", e.bs.FreeBlock(p), e.ref.FreeBlock(p))
		if _, ok := e.live[p]; ok {
			delete(e.live, p)
			delete(e.journaled, p)
		}
	case k < 62:
		// A batch of up to 6 entries over 3 contents, so entries share
		// content inside the batch; it may also name a page twice.
		ids := []int{e.contentID(), e.contentID(), e.contentID()}
		writes := make([]mem.BlockWrite, 1+e.rng.Intn(6))
		for i := range writes {
			writes[i] = mem.BlockWrite{PID: e.pid(), Data: equivContent(ids[e.rng.Intn(3)])}
		}
		e.same("WriteBlocks", e.bs.WriteBlocks(writes), e.ref.WriteBlocks(writes))
		for _, w := range writes {
			id := slices.IndexFunc(ids, func(id int) bool { return slices.Equal(equivContent(id), w.Data) })
			e.live[w.PID], e.journaled[w.PID] = ids[id], ids[id]
			e.hold(w.Data)
		}
	case k < 66:
		e.same("Sync", e.bs.Sync(), e.ref.Sync())
	case k < 70:
		man := []byte(fmt.Sprintf("manifest at op %d", e.op))
		e.same("Checkpoint", e.bs.Checkpoint(man), e.ref.Checkpoint(man))
		e.ckpt, e.manifest = copyIDs(e.live), man
	case k < 82:
		p := e.pid()
		got, gerr := e.bs.CheckpointBlock(p)
		want, werr := e.ref.CheckpointBlock(p)
		e.same("CheckpointBlock", gerr, werr)
		e.sameWords("CheckpointBlock", got, want)
		if gerr == nil {
			e.hold(got)
		}
	case k < 85:
		e.same("RevertToCheckpoint", e.bs.RevertToCheckpoint(), e.ref.RevertToCheckpoint())
		if e.ckpt != nil {
			e.live, e.journaled = copyIDs(e.ckpt), copyIDs(e.ckpt)
		}
	case k < 90:
		if got, want := e.bs.BlockIDs(), e.ref.BlockIDs(); !slices.Equal(got, want) {
			e.t.Fatalf("op %d BlockIDs: store %v, reference %v", e.op, got, want)
		}
	case k < 95:
		got, gerr := e.bs.Manifest()
		want, werr := e.ref.Manifest()
		e.same("Manifest", gerr, werr)
		if string(got) != string(want) {
			e.t.Fatalf("op %d Manifest: store %q, reference %q", e.op, got, want)
		}
	default:
		pids := []mem.PageID{e.pid(), e.pid()}
		if e.rng.Intn(4) == 0 {
			pids = append(pids, pids[0]) // a repeat fails the batch
		}
		got, gerr := e.bs.ReadBlocks(pids)
		want, werr := e.ref.ReadBlocks(pids)
		e.same("ReadBlocks", gerr, werr)
		if gerr == nil {
			for i := range pids {
				e.sameWords("ReadBlocks", got[i], want[i])
				delete(e.live, pids[i])
				e.hold(got[i])
			}
		}
	}
	e.scribble()
}

// replay closes the store, reopens it by replay and rebuilds the
// reference to what the journal holds.
func (e *equivRun) replay() {
	e.t.Helper()
	if err := e.bs.Close(); err != nil {
		e.t.Fatal(err)
	}
	bs, rep, err := Open(Config{Media: e.reopen(), Metrics: e.reg})
	if err != nil {
		e.t.Fatalf("op %d: reopen: %v", e.op, err)
	}
	if rep.Truncated {
		e.t.Fatalf("op %d: clean close replayed as torn: %+v", e.op, rep)
	}
	e.bs = bs
	e.ref = mem.NewMemStore()
	if e.ckpt != nil {
		for p, id := range e.ckpt {
			_ = e.ref.WriteBlock(p, equivContent(id))
		}
		_ = e.ref.Checkpoint(e.manifest)
		for p := range e.ckpt {
			_ = e.ref.FreeBlock(p)
		}
	}
	for p, id := range e.journaled {
		_ = e.ref.WriteBlock(p, equivContent(id))
	}
	e.live = copyIDs(e.journaled)
	if got, want := e.bs.BlockIDs(), e.ref.BlockIDs(); !slices.Equal(got, want) {
		e.t.Fatalf("op %d: replayed blocks %v, want %v", e.op, got, want)
	}
}

// TestStoreMatchesMemStore runs a seeded sequence of every BackingStore
// call against Store, on both media, and against mem.MemStore, closing
// and replaying the journal every few hundred calls. Words and error
// classes must match after every call, while the test scribbles over
// every slice a read returned or a batch borrowed.
func TestStoreMatchesMemStore(t *testing.T) {
	media := []struct {
		name string
		open func(t *testing.T) (first Media, reopen func() Media, size func() int64)
	}{
		{"MemMedia", func(*testing.T) (Media, func() Media, func() int64) {
			m := NewMemMedia()
			return m, func() Media { return m }, m.Size
		}},
		{"FileMedia", func(t *testing.T) (Media, func() Media, func() int64) {
			path := filepath.Join(t.TempDir(), "equiv.journal")
			var cur *FileMedia
			open := func() Media {
				fm, err := OpenFileMedia(path)
				if err != nil {
					t.Fatal(err)
				}
				cur = fm
				return fm
			}
			return open(), open, func() int64 { return cur.Size() }
		}},
	}
	for _, md := range media {
		t.Run(md.name, func(t *testing.T) {
			first, reopen, size := md.open(t)
			reg := metrics.New()
			bs, _, err := Open(Config{Media: first, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			e := &equivRun{
				t: t, rng: rand.New(rand.NewSource(1)), reg: reg, bs: bs, ref: mem.NewMemStore(), reopen: reopen,
				live: map[mem.PageID]int{}, journaled: map[mem.PageID]int{},
			}
			for e.op = 1; e.op <= equivOps; e.op++ {
				e.step()
				if e.op%equivReopen == 0 {
					e.replay()
				}
			}
			st := e.bs.StoreStats()
			if st.DedupHits < st.Writes/2 {
				t.Errorf("%d of %d writes deduplicated, want at least half", st.DedupHits, st.Writes)
			}
			if err := e.bs.Close(); err != nil {
				t.Fatal(err)
			}
			if n := size() / pendingFlushBytes; n < 10 {
				t.Errorf("journal spans %d pending buffers, want at least 10 threshold crossings", n)
			}
		})
	}
}

// TestWriteBackThenReadAllocatesNothing pins the page-in path's reuse: a
// page-out hands the store its words, and the next page-in decodes into
// them, so writing back the slice a read returned and reading another
// block allocates nothing on average.
func TestWriteBackThenReadAllocatesNothing(t *testing.T) {
	s, _ := mustOpen(t, NewMemMedia())
	const n = 4
	for i := 0; i < n; i++ {
		if err := s.WriteBlock(pid(1, i), block(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The content records go to media; the rewrites below are map
	// records in the pending buffer, so reads come from media.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	i := 0
	data, err := s.ReadBlock(pid(1, i))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.WriteBlock(pid(1, i), data); err != nil {
			t.Fatal(err)
		}
		i = (i + 1) % n
		if data, err = s.ReadBlock(pid(1, i)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a write-back and a read allocate %.1f times per pair, want 0", allocs)
	}
	wantWords(t, data, uint64(i), "last read")
}

// TestCheckpointReusesItsBuffers pins Checkpoint's reuse: it sorts the
// live pids into a buffer the store keeps and refills the superseded
// checkpoint's map, so a repeated checkpoint over 512 live blocks makes
// only two allocations, whatever the block count: the manifest's copy
// and the media's copy of the record.
func TestCheckpointReusesItsBuffers(t *testing.T) {
	s, _ := mustOpen(t, NewMemMedia())
	for i := 0; i < 512; i++ {
		if err := s.WriteBlock(pid(uint64(1+i%4), i), block(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	man := []byte("epoch")
	if err := s.Checkpoint(man); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.Checkpoint(man); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("a checkpoint over 512 blocks allocates %.1f times, want at most 2", allocs)
	}
	for i := 0; i < 512; i += 97 {
		got, err := s.CheckpointBlock(pid(uint64(1+i%4), i))
		if err != nil {
			t.Fatal(err)
		}
		wantWords(t, got, uint64(i), "checkpointed block")
	}
}
