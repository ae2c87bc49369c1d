package blockstore

import (
	"bytes"
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
// every content span's encoded bytes lie inside the kept bytes, decode to
// words that hash to its address, and are those words' canonical
// encoding.
func checkReplayInvariants(t *testing.T, st *replayState, kept []byte) {
	t.Helper()
	for r, sp := range st.content {
		if sp.off < 0 || sp.n < 0 || sp.size < 0 || sp.off+int64(sp.size) > int64(len(kept)) {
			t.Fatalf("span %+v of %v lies outside the %d kept bytes", sp, r, len(kept))
		}
		enc := kept[sp.off : sp.off+int64(sp.size)]
		ws := make([]uint64, sp.n)
		if !decodeWords(ws, enc) {
			t.Fatalf("span %+v of %v does not decode", sp, r)
		}
		if got := refOf(ws); got != r {
			t.Fatalf("span %+v decodes to content %v, not its address %v", sp, got, r)
		}
		if !bytes.Equal(appendWords(nil, ws), enc) {
			t.Fatalf("span %+v of %v is not the canonical encoding of its words", sp, r)
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

// nonCanonicalSeeds returns three one-record journals that write the
// words [0 5] under their true address, each encoded one way the
// canonical rule forbids: a bitmap bit set past the word count, a present
// word that is zero, and a payload 8 bytes longer than the bitmap's
// population count accounts for. canonical is the same record encoded as
// the store encodes it.
func nonCanonicalSeeds() (canonical []byte, seeds []replaySeed) {
	words := []uint64{0, 5}
	record := func(bitmap uint64, vals ...uint64) []byte {
		var e recEncoder
		e.begin(kindWrite)
		e.pid(pid(1, 0))
		e.ref(refOf(words))
		e.u32(uint32(len(words)))
		e.u64(bitmap)
		for _, v := range vals {
			e.u64(v)
		}
		return append([]byte(nil), e.finish()...)
	}
	return record(0b10, 5), []replaySeed{
		{name: "bit-past-n", raw: record(0b110, 5, 7)},
		{name: "present-zero", raw: record(0b11, 0, 5)},
		{name: "long-payload", raw: record(0b10, 5, 9)},
	}
}

// replaySeeds returns journals the store writes, one per record kind, one
// of sparse pages and one torn, and the non-canonical journals. Each whole
// journal the store writes comes twice: as raw bytes, where most mutations
// stop at the frame checks, and as (kind, payload) pairs, where a mutated
// payload keeps a valid CRC and reaches applyRecord.
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
		{name: "sparse", raw: journal(func(s *Store) {
			// A zero page, a page whose last word alone is set, and a
			// 65-word page, whose second bitmap word has one bit to keep.
			last := make([]uint64, 64)
			last[63] = 7
			long := make([]uint64, 65)
			long[1], long[40], long[64] = 3, 4, 5
			must(s.WriteBlock(pid(1, 0), make([]uint64, 64)))
			must(s.WriteBlock(pid(1, 1), last))
			must(s.WriteBlocks([]mem.BlockWrite{
				{PID: pid(2, 0), Data: long},
				{PID: pid(2, 1), Data: make([]uint64, 64)},
			}))
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
	_, bad := nonCanonicalSeeds()
	return append(append(seeds, replaySeed{name: "torn-tail", raw: torn}), bad...)
}

// TestReplayRefusesNonCanonicalWords replays each non-canonical journal:
// its words hash to their address, so only the canonical rule can refuse
// it, and replay must, as corruption. The canonical twin replays.
func TestReplayRefusesNonCanonicalWords(t *testing.T) {
	canonical, bad := nonCanonicalSeeds()
	if _, rep, _, err := replay(canonical); err != nil || rep.Writes != 1 {
		t.Fatalf("canonical record: replay = %v, report %+v", err, rep)
	}
	for _, sd := range bad {
		if _, _, _, err := replay(sd.raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: replay = %v, want ErrCorrupt", sd.name, err)
		}
	}
}

// TestWordEncoding pins the encoded size of four page shapes and their
// round trip through a slice that held other words: the bitmap costs one
// word per 64 words, and a zero word costs nothing else.
func TestWordEncoding(t *testing.T) {
	one := make([]uint64, 64)
	one[17] = 0xABC
	cases := []struct {
		name  string
		words []uint64
		size  int
	}{
		{"all-zero", make([]uint64, 64), 8},
		{"one-word", one, 8 + 8},
		{"dense", block(3), 8 + 64*8},
		{"65 words", append(block(4), 1), 16 + 65*8},
	}
	for _, c := range cases {
		enc := appendWords(nil, c.words)
		if len(enc) != c.size {
			t.Errorf("%s: %d bytes, want %d", c.name, len(enc), c.size)
		}
		got := make([]uint64, len(c.words))
		for i := range got {
			got[i] = ^uint64(i) // words the decode must overwrite
		}
		if !decodeWords(got, enc) || !slices.Equal(got, c.words) {
			t.Errorf("%s: words do not round-trip", c.name)
		}
	}
}

// TestFuzzReplaySeedsAreCurrent checks that the committed seeds are the
// journals the store writes today and the hand-built non-canonical ones;
// -update rewrites them. A change to the record format shows up here
// first.
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
