package blockstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mem"
)

// block returns a page of deterministic words keyed by seed. WriteBlock
// takes ownership of its slice, so every call mints a fresh one.
func block(seed uint64) []uint64 {
	ws := make([]uint64, 64)
	for i := range ws {
		ws[i] = seed*0x9E3779B97F4A7C15 + uint64(i)
	}
	return ws
}

func pid(uid uint64, idx int) mem.PageID { return mem.PageID{SegUID: uid, Index: idx} }

func mustOpen(t *testing.T, m Media) (*Store, *RecoveryReport) {
	t.Helper()
	s, rep, err := Open(Config{Media: m})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rep
}

func wantWords(t *testing.T, got []uint64, seed uint64, what string) {
	t.Helper()
	want := block(seed)
	if len(got) != len(want) {
		t.Fatalf("%s: %d words, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d = %#x, want %#x", what, i, got[i], want[i])
		}
	}
}

func TestOpenEmptyJournal(t *testing.T) {
	s, rep := mustOpen(t, NewMemMedia())
	if rep.Records != 0 || rep.Truncated || rep.TornBytes != 0 {
		t.Fatalf("empty journal recovery = %+v, want zero records and no tear", rep)
	}
	if ids := s.BlockIDs(); len(ids) != 0 {
		t.Fatalf("empty store has blocks: %v", ids)
	}
	if _, err := s.Manifest(); !errors.Is(err, mem.ErrNoCheckpoint) {
		t.Fatalf("Manifest on empty store = %v, want ErrNoCheckpoint", err)
	}
}

func TestWriteReadConsumesMapping(t *testing.T) {
	s, _ := mustOpen(t, NewMemMedia())
	if err := s.WriteBlock(pid(1, 0), block(7)); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBlock(pid(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	wantWords(t, got, 7, "read back")
	// ReadBlock consumes: the mapping moved to the caller with the page.
	if _, err := s.ReadBlock(pid(1, 0)); !errors.Is(err, mem.ErrNoBlock) {
		t.Fatalf("second read = %v, want ErrNoBlock", err)
	}
}

func TestDedupSharesOneContentRecord(t *testing.T) {
	m := NewMemMedia()
	s, _ := mustOpen(t, m)
	for i := 0; i < 4; i++ {
		if err := s.WriteBlock(pid(1, i), block(42)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.StoreStats()
	if st.Blocks != 4 || st.ContentBlocks != 1 || st.DedupHits != 3 {
		t.Fatalf("stats = %+v, want 4 blocks over 1 content with 3 dedup hits", st)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Replay sees the same shape: one write, three map records.
	_, rep := mustOpen(t, m)
	if rep.Writes != 1 || rep.Maps != 3 {
		t.Fatalf("replay = %+v, want 1 write + 3 maps", rep)
	}
}

func TestReopenReplaysSyncedState(t *testing.T) {
	m := NewMemMedia()
	s, _ := mustOpen(t, m)
	for i := 0; i < 3; i++ {
		if err := s.WriteBlock(pid(5, i), block(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FreeBlock(pid(5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s2, rep := mustOpen(t, m)
	if rep.Truncated {
		t.Fatalf("clean journal reported torn: %+v", rep)
	}
	if ids := s2.BlockIDs(); len(ids) != 2 {
		t.Fatalf("reopened blocks = %v, want pages 0 and 2", ids)
	}
	for _, i := range []int{0, 2} {
		got, err := s2.ReadBlock(pid(5, i))
		if err != nil {
			t.Fatalf("page %d after replay: %v", i, err)
		}
		wantWords(t, got, uint64(i), "replayed page")
	}
	if _, err := s2.ReadBlock(pid(5, 1)); !errors.Is(err, mem.ErrNoBlock) {
		t.Fatalf("freed page after replay = %v, want ErrNoBlock", err)
	}
}

func TestTornTailTruncatedSyncedPrefixSurvives(t *testing.T) {
	m := NewMemMedia()
	s, _ := mustOpen(t, m)
	if err := s.WriteBlock(pid(1, 0), block(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	synced := m.Size()
	if err := s.WriteBlock(pid(1, 1), block(2)); err != nil {
		t.Fatal(err)
	}
	// Close hands the pending record to media without syncing: the
	// unsynced tail is exactly the second write's frame.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if m.UnsyncedBytes() == 0 {
		t.Fatal("second write left no unsynced tail to tear")
	}
	// The crash keeps 7 bytes of the tail: a strict prefix of a frame.
	if err := m.Tear(7); err != nil {
		t.Fatal(err)
	}
	s2, rep := mustOpen(t, m)
	if !rep.Truncated || rep.TornBytes != 7 {
		t.Fatalf("recovery = %+v, want a 7-byte torn tail", rep)
	}
	if m.Size() != synced {
		t.Fatalf("journal is %dB after recovery, want the synced prefix %dB", m.Size(), synced)
	}
	got, err := s2.ReadBlock(pid(1, 0))
	if err != nil {
		t.Fatalf("synced write lost: %v", err)
	}
	wantWords(t, got, 1, "synced write")
	if _, err := s2.ReadBlock(pid(1, 1)); !errors.Is(err, mem.ErrNoBlock) {
		t.Fatalf("torn write = %v, want ErrNoBlock", err)
	}
}

// corruptable builds a journal with two synced write records and returns
// its bytes plus the offset of the second record.
func corruptable(t *testing.T) ([]byte, int) {
	t.Helper()
	m := NewMemMedia()
	s, _ := mustOpen(t, m)
	if err := s.WriteBlock(pid(1, 0), block(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	first := int(m.Size())
	if err := s.WriteBlock(pid(1, 1), block(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := m.Contents()
	if err != nil {
		t.Fatal(err)
	}
	return data, first
}

// reopenBytes loads raw journal bytes into a fresh medium and opens it.
func reopenBytes(t *testing.T, data []byte) (*Store, *RecoveryReport, error) {
	t.Helper()
	m := NewMemMedia()
	if err := m.Append(data); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	return Open(Config{Media: m})
}

func TestMidJournalCRCDamageIsCorruption(t *testing.T) {
	data, second := corruptable(t)
	// Flip a payload byte of the FIRST record: damage strictly before
	// valid bytes, which can never be a torn tail.
	data[recHdrSize+8] ^= 0xFF
	_, _, err := reopenBytes(t, data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with mid-journal damage = %v, want ErrCorrupt", err)
	}
	_ = second
}

func TestBadMagicIsCorruption(t *testing.T) {
	data, second := corruptable(t)
	binary.LittleEndian.PutUint32(data[second:], 0xDEADBEEF)
	_, _, err := reopenBytes(t, data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with bad magic = %v, want ErrCorrupt", err)
	}
}

func TestWriteRecordContentMustMatchAddress(t *testing.T) {
	data, second := corruptable(t)
	// Tamper with one content word of the second record, then fix the
	// frame CRC so only the end-to-end content address can catch it.
	wordOff := second + recHdrSize + 16 + 16 + 4 + 8 // pid + ref + word count + bitmap
	data[wordOff] ^= 0xFF
	plen := int(binary.LittleEndian.Uint32(data[second+5:]))
	crc := crc32.Checksum(data[second+4:second+9], crc32.MakeTable(crc32.Castagnoli))
	crc = crc32.Update(crc, crc32.MakeTable(crc32.Castagnoli), data[second+recHdrSize:second+recHdrSize+plen])
	binary.LittleEndian.PutUint32(data[second+9:], crc)
	_, _, err := reopenBytes(t, data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with re-CRCed content tamper = %v, want ErrCorrupt", err)
	}
	// The frame CRC was valid; only the content address check can refuse.
	if !strings.Contains(err.Error(), "address") {
		t.Fatalf("tamper caught by %q, want the content-address verification", err)
	}
}

// TestCheckpointCountIsBoundedByPayload replays a checkpoint record that
// claims far more entries than its payload holds. Replay must refuse it as
// corrupt without sizing anything by the claimed count.
func TestCheckpointCountIsBoundedByPayload(t *testing.T) {
	var e recEncoder
	e.begin(kindCheckpoint)
	e.bytes(nil)
	e.u32(1 << 20)
	data := append([]byte(nil), e.finish()...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := replay(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of an overlong checkpoint count = %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("replay allocated %d bytes for a %d-byte record", n, len(data))
	}
}

func TestCheckpointRevertRoundTrip(t *testing.T) {
	m := NewMemMedia()
	s, _ := mustOpen(t, m)
	for i := 0; i < 3; i++ {
		if err := s.WriteBlock(pid(9, i), block(uint64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	manifest := []byte(`{"v":"barrier"}`)
	if err := s.Checkpoint(manifest); err != nil {
		t.Fatal(err)
	}
	// Post-barrier churn the revert must erase.
	if err := s.WriteBlock(pid(9, 0), block(99)); err != nil {
		t.Fatal(err)
	}
	if err := s.FreeBlock(pid(9, 2)); err != nil {
		t.Fatal(err)
	}
	// The checkpoint view is pinned at the barrier regardless.
	got, err := s.CheckpointBlock(pid(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	wantWords(t, got, 10, "checkpoint block")
	if err := s.RevertToCheckpoint(); err != nil {
		t.Fatal(err)
	}
	// Replay of the whole journal (writes, checkpoint, churn, revert)
	// lands on the same reverted map and the same manifest.
	s2, rep := mustOpen(t, m)
	if rep.Checkpoints != 1 || rep.Reverts != 1 {
		t.Fatalf("replay = %+v, want 1 checkpoint + 1 revert", rep)
	}
	man, err := s2.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if string(man) != string(manifest) {
		t.Fatalf("manifest = %q, want %q", man, manifest)
	}
	for i := 0; i < 3; i++ {
		got, err := s2.ReadBlock(pid(9, i))
		if err != nil {
			t.Fatalf("reverted page %d: %v", i, err)
		}
		wantWords(t, got, uint64(10+i), "reverted page")
	}
}

func TestRevertWithoutCheckpoint(t *testing.T) {
	s, _ := mustOpen(t, NewMemMedia())
	if err := s.RevertToCheckpoint(); !errors.Is(err, mem.ErrNoCheckpoint) {
		t.Fatalf("RevertToCheckpoint = %v, want ErrNoCheckpoint", err)
	}
	if _, err := s.CheckpointBlock(pid(1, 0)); !errors.Is(err, mem.ErrNoCheckpoint) {
		t.Fatalf("CheckpointBlock = %v, want ErrNoCheckpoint", err)
	}
}

func TestFileMediaRoundTripAndTear(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.journal")
	fm, err := OpenFileMedia(path)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := mustOpen(t, fm)
	if err := s.WriteBlock(pid(3, 0), block(30)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(pid(3, 1), block(31)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the file: bytes on disk at open count as durable, so both
	// writes replay; then crash it with an unsynced tail.
	fm2, err := OpenFileMedia(path)
	if err != nil {
		t.Fatal(err)
	}
	s2, rep := mustOpen(t, fm2)
	if rep.Writes != 2 || rep.Truncated {
		t.Fatalf("file replay = %+v, want 2 clean writes", rep)
	}
	if err := s2.WriteBlock(pid(3, 2), block(32)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil { // flush, no sync
		t.Fatal(err)
	}
	// The file medium was closed with the store; tear through a fresh
	// handle the way the next boot would find the file... except the
	// unsynced tail: on a real disk those bytes may be gone, which is
	// what Tear(0) on the still-open handle models. Use a new medium and
	// truncate to the synced size recorded before the crash write.
	fm3, err := OpenFileMedia(path)
	if err != nil {
		t.Fatal(err)
	}
	half := fm3.Size() - 20 // cut into the final record
	if err := fm3.Truncate(half); err != nil {
		t.Fatal(err)
	}
	s3, rep3 := mustOpen(t, fm3)
	if !rep3.Truncated {
		t.Fatalf("recovery = %+v, want a torn tail", rep3)
	}
	got, err := s3.ReadBlock(pid(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	wantWords(t, got, 30, "file page 0")
	if _, err := s3.ReadBlock(pid(3, 2)); !errors.Is(err, mem.ErrNoBlock) {
		t.Fatalf("torn file write = %v, want ErrNoBlock", err)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPendingBufferInvisibleUntilFlush(t *testing.T) {
	m := NewMemMedia()
	s, _ := mustOpen(t, m)
	if err := s.WriteBlock(pid(2, 0), block(5)); err != nil {
		t.Fatal(err)
	}
	// Below the flush threshold nothing has reached media yet: the
	// record is store-side pending, which a crash is allowed to lose.
	if m.Size() != 0 {
		t.Fatalf("media holds %dB before any flush, want 0", m.Size())
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if m.Size() == 0 || m.UnsyncedBytes() != 0 {
		t.Fatalf("after Sync: size %dB unsynced %dB, want flushed and durable", m.Size(), m.UnsyncedBytes())
	}
}
