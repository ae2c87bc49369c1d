package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func newStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

func smallConfig() Config {
	c := DefaultConfig()
	c.PageWords = 4
	c.CoreFrames = 4
	c.BulkBlocks = 8
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{PageWords: 4, CoreFrames: 0, BulkBlocks: 1},
		{PageWords: 4, CoreFrames: 1, BulkBlocks: 0},
		{PageWords: 4, CoreFrames: 1, BulkBlocks: 1, BulkRead: -1},
	}
	for i, c := range bad {
		if _, err := NewStore(c); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestCreateAndDeleteSegment(t *testing.T) {
	s := newStore(t, smallConfig())
	if _, err := s.CreateSegment(1, 16); err != nil {
		t.Fatalf("CreateSegment: %v", err)
	}
	if _, err := s.CreateSegment(1, 16); err == nil {
		t.Error("duplicate UID should fail")
	}
	if _, err := s.CreateSegment(2, -1); err == nil {
		t.Error("negative length should fail")
	}
	if err := s.DeleteSegment(1); err != nil {
		t.Fatalf("DeleteSegment: %v", err)
	}
	if err := s.DeleteSegment(1); err == nil {
		t.Error("double delete should fail")
	}
}

func TestZeroFillMaterialization(t *testing.T) {
	s := newStore(t, smallConfig())
	if _, err := s.CreateSegment(1, 16); err != nil {
		t.Fatal(err)
	}
	pid := PageID{SegUID: 1, Index: 0}
	f, lat, err := s.PageIn(pid)
	if err != nil {
		t.Fatalf("PageIn: %v", err)
	}
	if lat != 0 {
		t.Errorf("zero fill latency = %d, want 0", lat)
	}
	v, err := s.ReadWord(f, 0)
	if err != nil || v != 0 {
		t.Errorf("zero-filled page read = %d, %v", v, err)
	}
	if n := s.zeroFills.Value(); n != 1 {
		t.Errorf("zero fills = %d, want 1", n)
	}
	// Double materialization must fail.
	if _, err := s.MaterializeZero(pid); err == nil {
		t.Error("double materialization should fail")
	}
}

func TestEvictionRoundTrip(t *testing.T) {
	s := newStore(t, smallConfig())
	if _, err := s.CreateSegment(1, 16); err != nil {
		t.Fatal(err)
	}
	pid := PageID{SegUID: 1, Index: 2}
	f, _, err := s.PageIn(pid)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteWord(f, 1, 77); err != nil {
		t.Fatal(err)
	}

	// Core -> bulk.
	b, lat, err := s.EvictToBulk(f)
	if err != nil {
		t.Fatalf("EvictToBulk: %v", err)
	}
	if lat != s.Config().BulkWrite {
		t.Errorf("bulk write latency = %d, want %d", lat, s.Config().BulkWrite)
	}
	loc, _ := s.Locate(pid)
	if loc.Level != LevelBulk || loc.Block != b {
		t.Errorf("location after evict = %+v", loc)
	}

	// Bulk -> disk.
	if _, err := s.BulkToDisk(b); err != nil {
		t.Fatalf("BulkToDisk: %v", err)
	}
	loc, _ = s.Locate(pid)
	if loc.Level != LevelDisk {
		t.Errorf("location after bulk->disk = %+v", loc)
	}

	// Disk -> core, data intact.
	f2, lat, err := s.PageIn(pid)
	if err != nil {
		t.Fatalf("PageIn from disk: %v", err)
	}
	if lat != s.Config().DiskRead {
		t.Errorf("disk read latency = %d, want %d", lat, s.Config().DiskRead)
	}
	v, err := s.ReadWord(f2, 1)
	if err != nil || v != 77 {
		t.Errorf("data after round trip = %d, %v; want 77", v, err)
	}
	if c2b, b2d, d2c := s.coreToBulk.Value(), s.bulkToDisk.Value(), s.diskToCore.Value(); c2b != 1 || b2d != 1 || d2c != 1 {
		t.Errorf("transfers core->bulk %d, bulk->disk %d, disk->core %d; want 1 each", c2b, b2d, d2c)
	}
}

func TestEvictToDiskDirect(t *testing.T) {
	s := newStore(t, smallConfig())
	if _, err := s.CreateSegment(1, 4); err != nil {
		t.Fatal(err)
	}
	pid := PageID{SegUID: 1, Index: 0}
	f, _, err := s.PageIn(pid)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteWord(f, 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EvictToDisk(f); err != nil {
		t.Fatalf("EvictToDisk: %v", err)
	}
	f2, _, err := s.PageIn(pid)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ReadWord(f2, 0); v != 5 {
		t.Errorf("data after disk round trip = %d, want 5", v)
	}
}

func TestNoFreeFrame(t *testing.T) {
	cfg := smallConfig()
	cfg.CoreFrames = 2
	s := newStore(t, cfg)
	if _, err := s.CreateSegment(1, 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := s.PageIn(PageID{SegUID: 1, Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.PageIn(PageID{SegUID: 1, Index: 2}); !errors.Is(err, ErrNoFreeFrame) {
		t.Errorf("PageIn with full core: got %v, want ErrNoFreeFrame", err)
	}
	if s.FreeFrameCount() != 0 {
		t.Errorf("free frames = %d, want 0", s.FreeFrameCount())
	}
}

func TestNoFreeBlock(t *testing.T) {
	cfg := smallConfig()
	cfg.CoreFrames = 4
	cfg.BulkBlocks = 1
	s := newStore(t, cfg)
	if _, err := s.CreateSegment(1, 100); err != nil {
		t.Fatal(err)
	}
	f0, _, _ := s.PageIn(PageID{SegUID: 1, Index: 0})
	f1, _, _ := s.PageIn(PageID{SegUID: 1, Index: 1})
	if _, _, err := s.EvictToBulk(f0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.EvictToBulk(f1); !errors.Is(err, ErrNoFreeBlock) {
		t.Errorf("EvictToBulk with full bulk: got %v, want ErrNoFreeBlock", err)
	}
}

func TestWiredFramesNotEvictable(t *testing.T) {
	s := newStore(t, smallConfig())
	if _, err := s.CreateSegment(1, 4); err != nil {
		t.Fatal(err)
	}
	f, _, err := s.PageIn(PageID{SegUID: 1, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wire(f, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.EvictToBulk(f); err == nil {
		t.Error("evicting wired frame should fail")
	}
	if _, err := s.EvictToDisk(f); err == nil {
		t.Error("evicting wired frame to disk should fail")
	}
	if err := s.Wire(f, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.EvictToBulk(f); err != nil {
		t.Errorf("evicting unwired frame: %v", err)
	}
}

func TestUsageBits(t *testing.T) {
	s := newStore(t, smallConfig())
	if _, err := s.CreateSegment(1, 4); err != nil {
		t.Fatal(err)
	}
	f, _, _ := s.PageIn(PageID{SegUID: 1, Index: 0})
	fi, _ := s.FrameInfo(f)
	if !fi.Used {
		t.Error("freshly paged-in frame should be marked used")
	}
	if err := s.ResetUsage(f); err != nil {
		t.Fatal(err)
	}
	fi, _ = s.FrameInfo(f)
	if fi.Used || fi.Modified {
		t.Errorf("after reset: %+v", fi)
	}
	if err := s.WriteWord(f, 0, 1); err != nil {
		t.Fatal(err)
	}
	fi, _ = s.FrameInfo(f)
	if !fi.Used || !fi.Modified {
		t.Errorf("after write: %+v", fi)
	}
}

func TestSetLengthShrinkReleasesPages(t *testing.T) {
	s := newStore(t, smallConfig())
	if _, err := s.CreateSegment(1, 16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := s.PageIn(PageID{SegUID: 1, Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	free := s.FreeFrameCount()
	if err := s.SetLength(1, 4); err != nil { // keep only page 0
		t.Fatal(err)
	}
	if got := s.FreeFrameCount(); got != free+2 {
		t.Errorf("free frames after shrink = %d, want %d", got, free+2)
	}
	loc, _ := s.Locate(PageID{SegUID: 1, Index: 2})
	if loc.Level != LevelNone {
		t.Errorf("released page location = %v, want unmaterialized", loc.Level)
	}
}

func TestPagedBacking(t *testing.T) {
	s := newStore(t, smallConfig())
	if _, err := s.CreateSegment(7, 10); err != nil {
		t.Fatal(err)
	}
	pb, err := NewPagedBacking(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Length() != 10 {
		t.Errorf("Length = %d, want 10", pb.Length())
	}
	// First access faults.
	_, err = pb.ReadWord(0)
	pf, ok := err.(*machine.PageFault)
	if !ok {
		t.Fatalf("expected page fault, got %v", err)
	}
	if pf.Page != 0 || pf.SegTag != 7 {
		t.Errorf("page fault = %+v", pf)
	}
	// Materialize and retry.
	if _, _, err := s.PageIn(PageID{SegUID: 7, Index: 0}); err != nil {
		t.Fatal(err)
	}
	if err := pb.WriteWord(1, 9); err != nil {
		t.Fatalf("WriteWord after page-in: %v", err)
	}
	if v, err := pb.ReadWord(1); err != nil || v != 9 {
		t.Errorf("ReadWord = %d, %v; want 9", v, err)
	}
	// Out of segment bounds is an error, not a fault.
	if _, err := pb.ReadWord(10); err == nil {
		t.Error("read past segment length should fail")
	}
	if _, err := NewPagedBacking(s, 99); err == nil {
		t.Error("backing for missing segment should fail")
	}
}

// Locate's failures carry classified sentinels so the gate taxonomy can
// bucket storage references without string matching: out-of-range offsets
// are the caller's bad argument, a deleted segment is a kernel failure.
func TestPagedBackingClassifiedErrors(t *testing.T) {
	cases := []struct {
		name   string
		delete bool
		off    int
		want   error
	}{
		{name: "negative offset", off: -1, want: ErrOutOfRange},
		{name: "offset at length", off: 10, want: ErrOutOfRange},
		{name: "offset past length", off: 4096, want: ErrOutOfRange},
		{name: "deleted segment", delete: true, off: 0, want: ErrSegmentGone},
		{name: "deleted segment out of range", delete: true, off: 99, want: ErrSegmentGone},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore(t, smallConfig())
			if _, err := s.CreateSegment(7, 10); err != nil {
				t.Fatal(err)
			}
			pb, err := NewPagedBacking(s, 7)
			if err != nil {
				t.Fatal(err)
			}
			if tc.delete {
				if err := s.DeleteSegment(7); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := pb.ReadWord(tc.off); !errors.Is(err, tc.want) {
				t.Errorf("ReadWord(%d) = %v, want %v", tc.off, err, tc.want)
			}
			if err := pb.WriteWord(tc.off, 1); !errors.Is(err, tc.want) {
				t.Errorf("WriteWord(%d) = %v, want %v", tc.off, err, tc.want)
			}
		})
	}
}

// Property: frame/block accounting is conserved — after any interleaving of
// page-ins and evictions, free + occupied == total at each level, and no two
// pages occupy the same frame.
func TestQuickFrameConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		cfg := smallConfig()
		s, err := NewStore(cfg)
		if err != nil {
			return false
		}
		if _, err := s.CreateSegment(1, 1000); err != nil {
			return false
		}
		for _, op := range ops {
			page := int(op % 16)
			pid := PageID{SegUID: 1, Index: page}
			switch {
			case op%3 != 0:
				_, _, err := s.PageIn(pid)
				if err != nil && !errors.Is(err, ErrNoFreeFrame) {
					return false
				}
			default:
				loc, err := s.Locate(pid)
				if err != nil {
					return false
				}
				if loc.Level == LevelCore {
					_, _, err := s.EvictToBulk(loc.Frame)
					if err != nil && !errors.Is(err, ErrNoFreeBlock) {
						return false
					}
				}
			}
		}
		// Conservation: every non-free frame holds a distinct core page.
		occupied := 0
		seen := map[PageID]bool{}
		for _, fr := range s.Frames() {
			if fr.Free {
				continue
			}
			occupied++
			if seen[fr.PID] {
				return false
			}
			seen[fr.PID] = true
			loc, err := s.Locate(fr.PID)
			if err != nil || loc.Level != LevelCore || loc.Frame != fr.ID {
				return false
			}
		}
		return occupied+s.FreeFrameCount() == cfg.CoreFrames
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
