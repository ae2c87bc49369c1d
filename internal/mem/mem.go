// Package mem simulates the three-level Multics memory hierarchy the paper's
// page-control redesign moves pages among: primary memory (core), the bulk
// store (paging drum), and disk. The package is passive storage with latency
// accounting; process structure — who performs a transfer and who waits for
// it — belongs to the page-control implementations in internal/pagectl.
package mem

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// Level identifies one level of the memory hierarchy.
type Level int

// Hierarchy levels. LevelNone marks a page that has never been referenced:
// it materializes zero-filled on first use.
const (
	LevelNone Level = iota
	LevelCore
	LevelBulk
	LevelDisk
)

func (l Level) String() string {
	switch l {
	case LevelNone:
		return "unmaterialized"
	case LevelCore:
		return "core"
	case LevelBulk:
		return "bulk"
	case LevelDisk:
		return "disk"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// PageID names one page of one segment, globally: the segment's unique ID
// plus the page index within the segment.
type PageID struct {
	SegUID uint64
	Index  int
}

func (p PageID) String() string { return fmt.Sprintf("%#x.%d", p.SegUID, p.Index) }

// FrameID indexes a primary-memory frame.
type FrameID int

// BlockID indexes a bulk-store block.
type BlockID int

// Location records where a page currently lives. Pages live at exactly one
// level at a time in this model.
type Location struct {
	Level Level
	Frame FrameID // valid when Level == LevelCore
	Block BlockID // valid when Level == LevelBulk
}

// Config sizes the hierarchy and sets transfer latencies in virtual cycles.
type Config struct {
	// PageWords is the page size in words.
	PageWords int
	// CoreFrames is the number of primary-memory page frames.
	CoreFrames int
	// BulkBlocks is the number of bulk-store blocks.
	BulkBlocks int
	// BulkRead/BulkWrite are bulk-store transfer latencies.
	BulkRead, BulkWrite int64
	// DiskRead/DiskWrite are disk transfer latencies.
	DiskRead, DiskWrite int64
	// Metrics, when set, is the registry the store publishes its
	// transfer and contention counters into (mem.* names). When nil the
	// store uses a private registry so Stats keeps working standalone.
	Metrics *metrics.Registry
	// Backing, when set, is the durable block layer under the disk
	// level. When nil the store uses a fresh volatile MemStore — the
	// historical behavior.
	Backing BackingStore
}

// DefaultConfig returns a hierarchy sized for the experiments: a small core
// over a larger bulk store over unbounded disk, with disk roughly 20x slower
// than the bulk store.
func DefaultConfig() Config {
	return Config{
		PageWords:  64,
		CoreFrames: 32,
		BulkBlocks: 128,
		BulkRead:   100,
		BulkWrite:  100,
		DiskRead:   2000,
		DiskWrite:  2000,
	}
}

func (c Config) validate() error {
	if c.PageWords <= 0 {
		return errors.New("mem: PageWords must be positive")
	}
	if c.CoreFrames <= 0 {
		return errors.New("mem: CoreFrames must be positive")
	}
	if c.BulkBlocks <= 0 {
		return errors.New("mem: BulkBlocks must be positive")
	}
	if c.BulkRead < 0 || c.BulkWrite < 0 || c.DiskRead < 0 || c.DiskWrite < 0 {
		return errors.New("mem: latencies must be non-negative")
	}
	return nil
}

type frame struct {
	free     bool
	pid      PageID
	data     []uint64
	used     bool // referenced since last usage reset
	modified bool
	wired    bool // never evictable (kernel pages)
}

type block struct {
	free bool
	pid  PageID
	data []uint64
	fill uint64 // stamp of the fill that put pid here; see bulkIndex
}

// numBins is how many free lists each pool keeps. A page takes a frame
// (or block) from its home bin and then from the other bins in order. The
// bins are an allocation rule: they decide which frame each page gets,
// and so which victims the clock later picks.
const numBins = 8

// freeBins is one pool's free IDs, LIFO within each bin. A freed ID goes
// back to bin id mod numBins.
type freeBins [numBins][]int

func (fb *freeBins) count() int {
	n := 0
	for i := range fb {
		n += len(fb[i])
	}
	return n
}

// take pops a free ID, starting at bin home and moving on to the others
// in order when it is empty; taking from another bin counts as a steal.
func (fb *freeBins) take(home int, steals *metrics.Counter) (int, bool) {
	for i := 0; i < numBins; i++ {
		bin := &fb[(home+i)%numBins]
		if n := len(*bin); n > 0 {
			id := (*bin)[n-1]
			*bin = (*bin)[:n-1]
			if i != 0 {
				steals.Add(1)
			}
			return id, true
		}
	}
	return 0, false
}

func (fb *freeBins) put(id int) {
	fb[id%numBins] = append(fb[id%numBins], id)
}

// Store is the whole simulated memory hierarchy plus the page tables of all
// segments. One goroutine at a time drives it, as it drives the kernel that
// owns it (DESIGN.md, "One driver per kernel"). Transfer statistics are
// metrics counters. A method may call the backing store and the fault
// hook; neither calls back into the store.
type Store struct {
	cfg Config

	frames []frame
	blocks []block
	segs   map[uint64]*SegmentPages

	freeFrames freeBins
	freeBlocks freeBins

	// bulk orders the occupied blocks by page for the bulk-freeing
	// process.
	bulk bulkIndex

	// backing is the durable block layer serving LevelDisk. It may also
	// hold stale copies of pages whose live location is core or bulk —
	// checkpoint flushes write through without moving pages, exactly as
	// a real disk copy goes stale when the page is later dirtied in core.
	backing BackingStore

	// Transfer and steal counts live in the unified metrics registry;
	// these are pre-resolved handles.
	bulkToCore, diskToCore   *metrics.Counter
	coreToBulk, coreToDisk   *metrics.Counter
	bulkToDisk, diskToBulk   *metrics.Counter
	zeroFills                *metrics.Counter
	frameSteals, blockSteals *metrics.Counter
	ckptFlushes              *metrics.Counter

	// hook, when set, interposes on every backing-store transfer; see
	// faulthook.go.
	hook FaultHook
}

// SegmentPages is the page table of one segment. All access to it goes
// through the owning Store.
type SegmentPages struct {
	UID uint64

	length int // length in words
	pages  map[int]Location
}

// Length returns the segment length in words.
func (s *SegmentPages) Length() int { return s.length }

// NumPages returns how many pages the segment spans.
func (s *SegmentPages) NumPages(pageWords int) int {
	return (s.length + pageWords - 1) / pageWords
}

// NewStore returns an empty hierarchy.
func NewStore(cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	backing := cfg.Backing
	if backing == nil {
		backing = NewMemStore()
	}
	st := &Store{
		cfg:         cfg,
		frames:      make([]frame, cfg.CoreFrames),
		blocks:      make([]block, cfg.BulkBlocks),
		backing:     backing,
		segs:        make(map[uint64]*SegmentPages),
		bulkToCore:  reg.Counter("mem.bulk_to_core"),
		diskToCore:  reg.Counter("mem.disk_to_core"),
		coreToBulk:  reg.Counter("mem.core_to_bulk"),
		coreToDisk:  reg.Counter("mem.core_to_disk"),
		bulkToDisk:  reg.Counter("mem.bulk_to_disk"),
		diskToBulk:  reg.Counter("mem.disk_to_bulk"),
		zeroFills:   reg.Counter("mem.zero_fills"),
		frameSteals: reg.Counter("mem.frame_steals"),
		blockSteals: reg.Counter("mem.block_steals"),
		ckptFlushes: reg.Counter("mem.checkpoint_flushes"),
	}
	for i := range st.frames {
		st.frames[i].free = true
		st.freeFrames.put(i)
	}
	for i := range st.blocks {
		st.blocks[i].free = true
		st.freeBlocks.put(i)
	}
	return st, nil
}

// Config returns the hierarchy configuration.
func (s *Store) Config() Config { return s.cfg }

// Backing returns the durable block layer serving the disk level.
func (s *Store) Backing() BackingStore { return s.backing }

// seg returns the page table for uid.
func (s *Store) seg(uid uint64) (*SegmentPages, error) {
	if sp, ok := s.segs[uid]; ok {
		return sp, nil
	}
	return nil, fmt.Errorf("mem: segment %#x does not exist", uid)
}

// CreateSegment registers a segment of length words, with all pages
// unmaterialized. It fails if the UID is already in use.
func (s *Store) CreateSegment(uid uint64, length int) (*SegmentPages, error) {
	if length < 0 {
		return nil, fmt.Errorf("mem: negative segment length %d", length)
	}
	if _, ok := s.segs[uid]; ok {
		return nil, fmt.Errorf("mem: segment %#x already exists", uid)
	}
	sp := &SegmentPages{UID: uid, length: length, pages: make(map[int]Location)}
	s.segs[uid] = sp
	return sp, nil
}

// Segment returns the page table for uid.
func (s *Store) Segment(uid uint64) (*SegmentPages, bool) {
	sp, ok := s.segs[uid]
	return sp, ok
}

// SegmentUIDs returns the UIDs of all registered segments, sorted.
func (s *Store) SegmentUIDs() []uint64 {
	out := make([]uint64, 0, len(s.segs))
	for uid := range s.segs {
		out = append(out, uid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DeleteSegment releases every page of uid at every level.
func (s *Store) DeleteSegment(uid uint64) error {
	sp, err := s.seg(uid)
	if err != nil {
		return err
	}
	delete(s.segs, uid)
	for idx, loc := range sp.pages {
		s.releasePage(PageID{SegUID: uid, Index: idx}, loc)
		delete(sp.pages, idx)
	}
	return nil
}

// releasePage returns a page's storage to the free pools.
func (s *Store) releasePage(pid PageID, loc Location) {
	switch loc.Level {
	case LevelCore:
		s.releaseFrame(loc.Frame)
	case LevelBulk:
		s.releaseBlock(loc.Block)
	}
	// Drop the durable copy regardless of the live level: a checkpoint
	// flush may have left one behind a core- or bulk-resident page. A
	// failed free only strands a stale block — restore trusts the
	// manifest, not the live map — so it does not abort the release.
	_ = s.backing.FreeBlock(pid)
}

// SetLength grows or shrinks a segment. Shrinking releases pages beyond the
// new length.
func (s *Store) SetLength(uid uint64, length int) error {
	sp, err := s.seg(uid)
	if err != nil {
		return err
	}
	if length < 0 {
		return fmt.Errorf("mem: negative segment length %d", length)
	}
	lastPage := (length + s.cfg.PageWords - 1) / s.cfg.PageWords
	for idx, loc := range sp.pages {
		if idx < lastPage {
			continue
		}
		s.releasePage(PageID{SegUID: uid, Index: idx}, loc)
		delete(sp.pages, idx)
	}
	sp.length = length
	return nil
}

// Discard releases one page of a segment at whatever level it lives,
// without shrinking the segment: a later reference materializes the page
// again, zero-filled. It is the primitive behind the infinite I/O buffer's
// reclamation of consumed pages — the buffer only ever grows logically, but
// fully-consumed pages return their storage to the standard free pools.
// Discarding an unmaterialized page is a no-op.
func (s *Store) Discard(pid PageID) error {
	sp, err := s.seg(pid.SegUID)
	if err != nil {
		return err
	}
	loc, ok := sp.pages[pid.Index]
	if !ok {
		return nil
	}
	s.releasePage(pid, loc)
	delete(sp.pages, pid.Index)
	return nil
}

// Locate returns where a page of uid currently lives.
func (s *Store) Locate(pid PageID) (Location, error) {
	sp, err := s.seg(pid.SegUID)
	if err != nil {
		return Location{}, err
	}
	loc, ok := sp.pages[pid.Index]
	if !ok {
		return Location{Level: LevelNone}, nil
	}
	return loc, nil
}

// FreeFrameCount returns the number of free primary-memory frames.
func (s *Store) FreeFrameCount() int {
	return s.freeFrames.count()
}

// FreeBlockCount returns the number of free bulk-store blocks.
func (s *Store) FreeBlockCount() int {
	return s.freeBlocks.count()
}

// homeBin spreads allocations for different pages over the bins while
// keeping the choice deterministic for a given page.
func homeBin(pid PageID) int {
	return int((pid.SegUID*31 + uint64(pid.Index)) % numBins)
}

func (s *Store) takeFrame(pid PageID) (FrameID, bool) {
	id, ok := s.freeFrames.take(homeBin(pid), s.frameSteals)
	return FrameID(id), ok
}

func (s *Store) takeBlock(pid PageID) (BlockID, bool) {
	id, ok := s.freeBlocks.take(homeBin(pid), s.blockSteals)
	return BlockID(id), ok
}

// releaseFrame clears frame metadata and returns the frame to its free
// list, returning its page data.
func (s *Store) releaseFrame(f FrameID) []uint64 {
	fr := &s.frames[f]
	if fr.free {
		return nil
	}
	data := fr.data
	*fr = frame{free: true}
	s.freeFrames.put(int(f))
	return data
}

// releaseBlock is the bulk-store analogue of releaseFrame.
func (s *Store) releaseBlock(b BlockID) []uint64 {
	bl := &s.blocks[b]
	if bl.free {
		return nil
	}
	data := bl.data
	*bl = block{free: true}
	s.freeBlocks.put(int(b))
	return data
}

// ErrNoFreeFrame is returned when a page-in needs a core frame and none is
// free. Page control reacts by freeing one (the design under test).
var ErrNoFreeFrame = errors.New("mem: no free primary memory frame")

// ErrNoFreeBlock is the bulk-store analogue of ErrNoFreeFrame.
var ErrNoFreeBlock = errors.New("mem: no free bulk store block")

// MaterializeZero brings an unmaterialized page into core as zeros. It
// consumes a free frame and charges no transfer latency (zero-fill is a
// core-speed operation).
func (s *Store) MaterializeZero(pid PageID) (FrameID, error) {
	sp, err := s.seg(pid.SegUID)
	if err != nil {
		return 0, err
	}
	return s.materializeZero(sp, pid)
}

func (s *Store) materializeZero(sp *SegmentPages, pid PageID) (FrameID, error) {
	if loc, ok := sp.pages[pid.Index]; ok {
		return 0, fmt.Errorf("mem: page %v already materialized at %v", pid, loc.Level)
	}
	f, ok := s.takeFrame(pid)
	if !ok {
		return 0, ErrNoFreeFrame
	}
	s.installFrame(sp, f, pid, make([]uint64, s.cfg.PageWords))
	s.zeroFills.Inc()
	return f, nil
}

// installFrame publishes page data into a freshly allocated frame and
// points the page table at it.
func (s *Store) installFrame(sp *SegmentPages, f FrameID, pid PageID, data []uint64) {
	s.frames[f] = frame{pid: pid, data: data, used: true}
	sp.pages[pid.Index] = Location{Level: LevelCore, Frame: f}
}

// PageIn transfers a page from bulk or disk into a free core frame and
// returns the frame plus the transfer latency charged to whoever waited.
func (s *Store) PageIn(pid PageID) (FrameID, int64, error) {
	sp, err := s.seg(pid.SegUID)
	if err != nil {
		return 0, 0, err
	}
	loc, ok := sp.pages[pid.Index]
	if !ok {
		if err := s.checkIO(OpMaterialize, pid); err != nil {
			return 0, 0, err
		}
		f, err := s.materializeZero(sp, pid)
		return f, 0, err
	}
	switch loc.Level {
	case LevelCore:
		return loc.Frame, 0, nil
	case LevelBulk:
		if err := s.checkIO(OpBulkRead, pid); err != nil {
			return 0, 0, err
		}
		f, ok := s.takeFrame(pid)
		if !ok {
			return 0, 0, ErrNoFreeFrame
		}
		s.installFrame(sp, f, pid, s.releaseBlock(loc.Block))
		s.bulkToCore.Inc()
		return f, s.cfg.BulkRead, nil
	case LevelDisk:
		if err := s.checkIO(OpDiskRead, pid); err != nil {
			return 0, 0, err
		}
		f, ok := s.takeFrame(pid)
		if !ok {
			return 0, 0, ErrNoFreeFrame
		}
		data, err := s.backing.ReadBlock(pid)
		if err != nil {
			s.freeFrames.put(int(f))
			return 0, 0, fmt.Errorf("mem: disk read of %v: %w", pid, err)
		}
		s.installFrame(sp, f, pid, data)
		s.diskToCore.Inc()
		return f, s.cfg.DiskRead, nil
	default:
		return 0, 0, fmt.Errorf("mem: page %v in unexpected state %v", pid, loc.Level)
	}
}

// evictable returns the page in frame f and its page table, or an error
// if the frame is out of range, free or wired.
func (s *Store) evictable(f FrameID) (*SegmentPages, PageID, error) {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return nil, PageID{}, fmt.Errorf("mem: frame %d out of range", f)
	}
	fr := &s.frames[f]
	if fr.free {
		return nil, PageID{}, fmt.Errorf("mem: frame %d is free", f)
	}
	if fr.wired {
		return nil, PageID{}, fmt.Errorf("mem: frame %d is wired", f)
	}
	sp, err := s.seg(fr.pid.SegUID)
	return sp, fr.pid, err
}

// EvictToBulk moves the page in frame f to a free bulk-store block,
// returning the block and the latency.
func (s *Store) EvictToBulk(f FrameID) (BlockID, int64, error) {
	sp, pid, err := s.evictable(f)
	if err != nil {
		return 0, 0, err
	}
	if err := s.checkIO(OpBulkWrite, pid); err != nil {
		return 0, 0, err
	}
	b, ok := s.takeBlock(pid)
	if !ok {
		return 0, 0, ErrNoFreeBlock
	}
	data := s.releaseFrame(f)
	s.pageOut(OpBulkWrite, pid, data)
	s.fillBlock(b, pid, data)
	sp.pages[pid.Index] = Location{Level: LevelBulk, Block: b}
	s.coreToBulk.Inc()
	return b, s.cfg.BulkWrite, nil
}

// EvictToDisk moves the page in frame f directly to disk.
func (s *Store) EvictToDisk(f FrameID) (int64, error) {
	sp, pid, err := s.evictable(f)
	if err != nil {
		return 0, err
	}
	if err := s.checkIO(OpDiskWrite, pid); err != nil {
		return 0, err
	}
	if err := s.writeToDisk(OpDiskWrite, sp, pid, s.releaseFrame(f)); err != nil {
		return 0, err
	}
	s.coreToDisk.Inc()
	return s.cfg.DiskWrite, nil
}

// BulkToDisk moves the page in bulk block b to disk. In the real system
// this passed through primary memory; the latency charged reflects a bulk
// read plus a disk write.
func (s *Store) BulkToDisk(b BlockID) (int64, error) {
	if int(b) < 0 || int(b) >= len(s.blocks) {
		return 0, fmt.Errorf("mem: block %d out of range", b)
	}
	bl := &s.blocks[b]
	if bl.free {
		return 0, fmt.Errorf("mem: block %d is free", b)
	}
	pid := bl.pid
	sp, err := s.seg(pid.SegUID)
	if err != nil {
		return 0, err
	}
	if err := s.checkIO(OpBulkToDisk, pid); err != nil {
		return 0, err
	}
	if err := s.writeToDisk(OpBulkToDisk, sp, pid, s.releaseBlock(b)); err != nil {
		return 0, err
	}
	s.bulkToDisk.Inc()
	return s.cfg.BulkRead + s.cfg.DiskWrite, nil
}

// writeToDisk writes the data of a page whose frame or block was just
// released through the backing store and points the page table at disk.
// If the backing store refuses the write, the page goes back into core;
// if no frame is free it reverts to unmaterialized — the data is gone,
// which is exactly what a device that fails mid-write does, and the
// returned error says so.
func (s *Store) writeToDisk(op IOOp, sp *SegmentPages, pid PageID, data []uint64) error {
	s.pageOut(op, pid, data)
	if err := s.backing.WriteBlock(pid, data); err != nil {
		if f, ok := s.takeFrame(pid); ok {
			s.installFrame(sp, f, pid, data)
		} else {
			delete(sp.pages, pid.Index)
		}
		return fmt.Errorf("mem: disk write of %v: %w", pid, err)
	}
	sp.pages[pid.Index] = Location{Level: LevelDisk}
	return nil
}

// Frame gives page-control read access to frame metadata.
type Frame struct {
	ID       FrameID
	Free     bool
	PID      PageID
	Used     bool
	Modified bool
	Wired    bool
}

// Evictable reports whether the frame holds a page that may be evicted:
// occupied and not wired.
func (f Frame) Evictable() bool { return !f.Free && !f.Wired }

func (s *Store) frameInfo(f FrameID) Frame {
	fr := &s.frames[f]
	return Frame{ID: f, Free: fr.free, PID: fr.pid, Used: fr.used, Modified: fr.modified, Wired: fr.wired}
}

// FrameInfo returns the metadata of frame f.
func (s *Store) FrameInfo(f FrameID) (Frame, error) {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return Frame{}, fmt.Errorf("mem: frame %d out of range", f)
	}
	return s.frameInfo(f), nil
}

// Frames returns a copy of every frame's metadata. It allocates, so victim
// decisions read FrameInfo instead.
func (s *Store) Frames() []Frame {
	out := make([]Frame, len(s.frames))
	for i := range s.frames {
		out[i] = s.frameInfo(FrameID(i))
	}
	return out
}

// Block gives page-control read access to bulk-store block metadata.
type Block struct {
	ID   BlockID
	Free bool
	PID  PageID
}

// Blocks returns a copy of every bulk-store block's metadata. It
// allocates, so victim decisions read LowestBulkPage instead.
func (s *Store) Blocks() []Block {
	out := make([]Block, len(s.blocks))
	for i := range s.blocks {
		bl := &s.blocks[i]
		out[i] = Block{ID: BlockID(i), Free: bl.free, PID: bl.pid}
	}
	return out
}

// ResetUsage clears the referenced bit of frame f (clock-algorithm support).
func (s *Store) ResetUsage(f FrameID) error {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return fmt.Errorf("mem: frame %d out of range", f)
	}
	s.frames[f].used = false
	return nil
}

// Wire pins the page in frame f into core (kernel pages).
func (s *Store) Wire(f FrameID, wired bool) error {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return fmt.Errorf("mem: frame %d out of range", f)
	}
	if s.frames[f].free {
		return fmt.Errorf("mem: cannot wire free frame %d", f)
	}
	s.frames[f].wired = wired
	return nil
}

// ReadWord reads a word from a core-resident page.
func (s *Store) ReadWord(f FrameID, off int) (uint64, error) {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return 0, fmt.Errorf("mem: read of invalid frame %d", f)
	}
	fr := &s.frames[f]
	if fr.free {
		return 0, fmt.Errorf("mem: read of invalid frame %d", f)
	}
	if off < 0 || off >= len(fr.data) {
		return 0, fmt.Errorf("mem: frame offset %d out of range", off)
	}
	fr.used = true
	return fr.data[off], nil
}

// WriteWord writes a word to a core-resident page.
func (s *Store) WriteWord(f FrameID, off int, val uint64) error {
	if int(f) < 0 || int(f) >= len(s.frames) {
		return fmt.Errorf("mem: write of invalid frame %d", f)
	}
	fr := &s.frames[f]
	if fr.free {
		return fmt.Errorf("mem: write of invalid frame %d", f)
	}
	if off < 0 || off >= len(fr.data) {
		return fmt.Errorf("mem: frame offset %d out of range", off)
	}
	fr.used = true
	fr.modified = true
	fr.data[off] = val
	return nil
}
