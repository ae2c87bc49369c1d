package blockstore

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/mem"
)

var update = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzReplay from journals the store writes")

// framePairs frames (kind, payload) pairs as valid records, so fuzzed
// payloads get past the magic, length and CRC checks into applyRecord. b
// is a sequence of a kind byte, a little-endian uint16 payload length and
// the payload; the end of b cuts the last payload short.
func framePairs(b []byte) []byte {
	var e recEncoder
	var out []byte
	for len(b) >= 3 {
		kind, n := b[0], int(binary.LittleEndian.Uint16(b[1:3]))
		b = b[3:]
		n = min(n, len(b))
		e.begin(kind)
		e.buf = append(e.buf, b[:n]...)
		out = append(out, e.finish()...)
		b = b[n:]
	}
	return out
}

// unframe is framePairs' inverse for whole records: the pairs that frame
// to journal.
func unframe(journal []byte) []byte {
	var pairs []byte
	for off := 0; off+recHdrSize <= len(journal); {
		plen := int(binary.LittleEndian.Uint32(journal[off+5:]))
		pairs = append(pairs, journal[off+4])
		pairs = binary.LittleEndian.AppendUint16(pairs, uint16(plen))
		pairs = append(pairs, journal[off+recHdrSize:off+recHdrSize+plen]...)
		off += recHdrSize + plen
	}
	return pairs
}

// checkReplayInvariants is what the store trusts of a replayed state:
// every address the live map or the checkpoint names has content, and
// every content span lies inside the kept bytes and decodes to words that
// hash to its address.
func checkReplayInvariants(t *testing.T, st *replayState, kept []byte) {
	t.Helper()
	for r, sp := range st.content {
		if sp.off < 0 || sp.n < 0 || sp.off+int64(sp.n)*8 > int64(len(kept)) {
			t.Fatalf("span %+v of %v lies outside the %d kept bytes", sp, r, len(kept))
		}
		if got := refOfBytes(kept[sp.off : sp.off+int64(sp.n)*8]); got != r {
			t.Fatalf("span %+v decodes to content %v, not its address %v", sp, got, r)
		}
	}
	for _, m := range []map[mem.PageID]ref{st.index, st.ckpt} {
		for p, r := range m {
			if _, ok := st.content[r]; !ok {
				t.Fatalf("block %v names %v, which has no content", p, r)
			}
		}
	}
}

func sameReplayState(a, b *replayState) bool {
	return maps.Equal(a.index, b.index) && maps.Equal(a.content, b.content) &&
		(a.ckpt == nil) == (b.ckpt == nil) && maps.Equal(a.ckpt, b.ckpt) &&
		string(a.manifest) == string(b.manifest)
}

// FuzzReplay replays raw journal bytes followed by framed (kind, payload)
// pairs. Replay must not panic; it returns a state or an error wrapping
// ErrCorrupt; the bytes up to its truncation offset replay to the same
// state with no tear; the state keeps the invariants the store's reads
// trust; and a store opened on the bytes reads every block back under its
// address.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw, pairs []byte) {
		data := append(slices.Clip(raw), framePairs(pairs)...)
		st, rep, keep, err := replay(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if keep < 0 || keep > int64(len(data)) || keep != rep.JournalSize {
			t.Fatalf("truncation offset %d for %d bytes (report %+v)", keep, len(data), rep)
		}
		checkReplayInvariants(t, st, data[:keep])
		st2, rep2, keep2, err := replay(data[:keep])
		if err != nil || rep2.Truncated || keep2 != keep || rep2.Records != rep.Records {
			t.Fatalf("replaying the %d kept bytes: %v, report %+v", keep, err, rep2)
		}
		if !sameReplayState(st, st2) {
			t.Fatal("the kept bytes replay to a different state")
		}
		m := NewMemMedia()
		if err := m.Append(data); err != nil {
			t.Fatal(err)
		}
		s, _, err := Open(Config{Media: m})
		if err != nil {
			t.Fatalf("Open on bytes replay accepted: %v", err)
		}
		for _, p := range s.BlockIDs() {
			r := s.index[p]
			ws, err := s.ReadBlock(p)
			if err != nil {
				t.Fatalf("ReadBlock %v: %v", p, err)
			}
			if refOf(ws) != r {
				t.Fatalf("block %v reads back words that do not hash to %v", p, r)
			}
		}
	})
}

// replaySeed is one FuzzReplay input.
type replaySeed struct {
	name       string
	raw, pairs []byte
}

// replaySeeds returns journals the store writes, one per record kind and
// one torn. Each whole journal comes twice: as raw bytes, where most
// mutations stop at the frame checks, and as (kind, payload) pairs, where
// a mutated payload keeps a valid CRC and reaches applyRecord.
func replaySeeds(t *testing.T) []replaySeed {
	small := func(seed uint64) []uint64 { return block(seed)[:4] }
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	journal := func(ops func(s *Store)) []byte {
		m := NewMemMedia()
		s, _ := mustOpen(t, m)
		ops(s)
		must(s.Close())
		data, _ := m.Contents()
		return data
	}
	write := func(s *Store, uid uint64, idx int, seed uint64) { must(s.WriteBlock(pid(uid, idx), small(seed))) }
	whole := []replaySeed{
		{name: "writes", raw: journal(func(s *Store) {
			write(s, 1, 0, 1)
			write(s, 1, 1, 2)
			write(s, 2, 0, 3)
		})},
		{name: "dedup-maps", raw: journal(func(s *Store) {
			write(s, 1, 0, 1)
			write(s, 1, 1, 1)
			write(s, 2, 0, 1)
			write(s, 2, 1, 2)
			write(s, 2, 2, 2)
		})},
		{name: "frees", raw: journal(func(s *Store) {
			write(s, 1, 0, 1)
			write(s, 1, 1, 2)
			must(s.FreeBlock(pid(1, 0)))
			must(s.FreeBlock(pid(9, 9)))
			write(s, 1, 0, 3)
		})},
		{name: "batch", raw: journal(func(s *Store) {
			write(s, 1, 0, 1)
			must(s.WriteBlocks([]mem.BlockWrite{
				{PID: pid(2, 0), Data: small(1)},
				{PID: pid(2, 1), Data: small(2)},
				{PID: pid(2, 2), Data: small(2)},
				{PID: pid(2, 3), Data: small(3)},
			}))
		})},
		{name: "checkpoint", raw: journal(func(s *Store) {
			write(s, 1, 0, 1)
			write(s, 1, 1, 1)
			must(s.Checkpoint([]byte(`{"v":"barrier"}`)))
			write(s, 1, 1, 2)
			must(s.FreeBlock(pid(1, 0)))
		})},
		{name: "revert", raw: journal(func(s *Store) {
			write(s, 1, 0, 1)
			write(s, 1, 1, 2)
			must(s.Checkpoint([]byte("before")))
			write(s, 1, 0, 3)
			must(s.FreeBlock(pid(1, 1)))
			must(s.RevertToCheckpoint())
			write(s, 1, 2, 2)
		})},
	}
	seeds := whole
	for _, sd := range whole {
		seeds = append(seeds, replaySeed{name: sd.name + "-framed", pairs: unframe(sd.raw)})
	}
	m := NewMemMedia()
	s, _ := mustOpen(t, m)
	write(s, 1, 0, 1)
	must(s.Sync())
	write(s, 1, 1, 2)
	must(s.Close())
	must(m.Tear(7))
	torn, _ := m.Contents()
	return append(seeds, replaySeed{name: "torn-tail", raw: torn})
}

// TestFuzzReplaySeedsAreCurrent checks that the committed seeds are the
// journals the store writes today; -update rewrites them. A change to the
// record format shows up here first.
func TestFuzzReplaySeedsAreCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReplay")
	for _, sd := range replaySeeds(t) {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n[]byte(%q)\n", sd.raw, sd.pairs)
		path := filepath.Join(dir, sd.name)
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed %s: %v (go test -run SeedsAreCurrent -update writes it)", sd.name, err)
		}
		if string(got) != want {
			t.Errorf("seed %s differs from the journal the store writes; rerun with -update if the change is intended", sd.name)
		}
	}
}
