package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/mls"
)

// openJournal opens a blockstore over a fresh journal file in a test
// directory and returns the store and the file's path.
func openJournal(t *testing.T) (*blockstore.Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.journal")
	media, err := blockstore.OpenFileMedia(path)
	if err != nil {
		t.Fatal(err)
	}
	bs, _, err := blockstore.Open(blockstore.Config{Media: media})
	if err != nil {
		t.Fatal(err)
	}
	return bs, path
}

// batchJournal writes one two-page batch and one single-page write, syncs
// and closes the store.
func batchJournal(t *testing.T) string {
	t.Helper()
	bs, path := openJournal(t)
	if err := bs.WriteBlocks([]mem.BlockWrite{
		{PID: mem.PageID{SegUID: 1, Index: 0}, Data: []uint64{1, 2}},
		{PID: mem.PageID{SegUID: 1, Index: 1}, Data: []uint64{3, 4}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := bs.WriteBlock(mem.PageID{SegUID: 1, Index: 2}, []uint64{5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := bs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func inspect(t *testing.T, path string, verify bool) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, path, verify, false); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return out.String()
}

func TestSummaryCountsBatchRecords(t *testing.T) {
	out := inspect(t, batchJournal(t), false)
	want := "2 records (1 batch groups, 3 writes, 0 dedup maps, 0 frees, 0 checkpoints, 0 reverts), tail: none"
	if !strings.Contains(out, want) {
		t.Fatalf("summary lacks %q:\n%s", want, out)
	}
}

func TestVerifyKernelCheckpoint(t *testing.T) {
	bs, path := openJournal(t)
	mc := mem.DefaultConfig()
	mc.CoreFrames = 16
	mc.BulkBlocks = 32
	mc.Backing = bs
	k, err := core.New(core.Config{Stage: core.S6Restructured, Mem: &mc})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Shutdown()
	unc := mls.NewLabel(mls.Unclassified)
	uid, err := k.Services().Hierarchy.Create(acl.Principal{Person: "Alice", Project: "CSR", Tag: "a"},
		unc, fs.RootUID, "notes", fs.CreateOptions{Kind: fs.KindSegment, Label: unc, Length: 200})
	if err != nil {
		t.Fatal(err)
	}
	store := k.Services().Store
	for i := 0; i < 3; i++ {
		f, err := store.MaterializeZero(mem.PageID{SegUID: uid, Index: i})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WriteWord(f, 1, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := k.Checkpoint(map[string]string{"origin": "ckpt test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}

	out := inspect(t, path, true)
	if strings.Contains(out, " 0 batch groups") {
		t.Errorf("checkpoint flush wrote no batch group:\n%s", out)
	}
	want := "verify   ok: 3/3 checkpoint blocks readable, hierarchy digest ok=true"
	if rep.PagesFlushed != 3 || !strings.Contains(out, want) {
		t.Fatalf("checkpoint flushed %d pages; output lacks %q:\n%s", rep.PagesFlushed, want, out)
	}
}

func TestTornTailReportedAndFileUntouched(t *testing.T) {
	path := batchJournal(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the single-page write record short, as a crash mid-append would.
	torn := raw[:len(raw)-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	out := inspect(t, path, false)
	if !strings.Contains(out, "1 records (1 batch groups, 2 writes") || !strings.Contains(out, "B torn") {
		t.Fatalf("torn tail not reported:\n%s", out)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, torn) {
		t.Fatalf("inspection rewrote the journal: %d bytes before, %d after", len(torn), len(after))
	}
}
