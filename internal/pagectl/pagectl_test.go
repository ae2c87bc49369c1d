package pagectl

import (
	"testing"

	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sched"
)

func tinyMem(t *testing.T, coreFrames, bulkBlocks int) *mem.Store {
	t.Helper()
	cfg := mem.DefaultConfig()
	cfg.PageWords = 4
	cfg.CoreFrames = coreFrames
	cfg.BulkBlocks = bulkBlocks
	cfg.Metrics = metrics.New()
	s, err := mem.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// transfers reads one of the store's mem.* transfer counters.
func transfers(store *mem.Store, name string) int64 {
	return store.Config().Metrics.Counter(name).Value()
}

func fault(uid uint64, page int) *machine.PageFault {
	return &machine.PageFault{SegTag: uid, Page: page}
}

// touchPages runs a process that faults on the given pages in order via the
// pager, then reports per-page success.
func touchPages(t *testing.T, sch *sched.Scheduler, p Pager, uid uint64, pages []int) {
	t.Helper()
	sch.Spawn("toucher", func(pc *sched.ProcCtx) {
		for _, pg := range pages {
			if err := p.Handle(pc, fault(uid, pg)); err != nil {
				t.Errorf("fault on page %d: %v", pg, err)
				return
			}
		}
	})
	sch.Run(0)
	if blocked := sch.BlockedProcesses(); len(blocked) > 0 {
		for _, b := range blocked {
			if b.Name == "toucher" {
				t.Fatalf("toucher deadlocked: %s", b.BlockReason())
			}
		}
	}
}

func TestSequentialPagerBasicFault(t *testing.T) {
	store := tinyMem(t, 4, 8)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p := NewSequentialPager(store, nil, nil)
	touchPages(t, sch, p, 1, []int{0, 1, 2})
	st := p.Stats()
	if st.Faults != 3 {
		t.Errorf("faults = %d, want 3", st.Faults)
	}
	if st.FaulterEvictions != 0 {
		t.Errorf("no evictions expected with free core: %+v", st)
	}
}

func TestSequentialPagerCascades(t *testing.T) {
	// Core of 2 frames, bulk of 2 blocks: touching 8 pages forces the full
	// core->bulk->disk cascade inside the faulting process.
	store := tinyMem(t, 2, 2)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p := NewSequentialPager(store, FIFOPolicy{}, nil)
	touchPages(t, sch, p, 1, []int{0, 1, 2, 3, 4, 5, 6, 7})
	st := p.Stats()
	if st.Faults != 8 {
		t.Errorf("faults = %d, want 8", st.Faults)
	}
	if st.FaulterEvictions == 0 {
		t.Error("cascade should have forced evictions in the faulting process")
	}
	if transfers(store, "mem.bulk_to_disk") == 0 {
		t.Error("bulk->disk transfers expected once bulk filled")
	}
	if st.MaxCascade == 0 {
		t.Error("cascade depth should be recorded")
	}
}

func TestSequentialPagerRefetch(t *testing.T) {
	// Page evicted and refetched keeps its contents (via the store), and
	// the pager handles the fault rather than erroring.
	store := tinyMem(t, 2, 4)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p := NewSequentialPager(store, FIFOPolicy{}, nil)
	touchPages(t, sch, p, 1, []int{0, 1, 2, 0, 1, 2})
	if got := p.Stats().Faults; got != 6 {
		t.Errorf("faults = %d, want 6", got)
	}
	if transfers(store, "mem.bulk_to_core") == 0 {
		t.Error("refetch from bulk expected")
	}
}

func TestParallelPagerBasic(t *testing.T) {
	store := tinyMem(t, 8, 16)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p, err := NewParallelPager(store, sch, DefaultParallelConfig(store.Config()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	touchPages(t, sch, p, 1, []int{0, 1, 2, 3})
	if got := p.Stats().Faults; got != 4 {
		t.Errorf("faults = %d, want 4", got)
	}
	if p.Stats().FaulterEvictions != 0 {
		t.Error("faulting process must never evict in the parallel design")
	}
}

func TestParallelPagerUnderPressure(t *testing.T) {
	// Small core, small bulk: the dedicated processes must keep the system
	// live through sustained overcommit.
	store := tinyMem(t, 4, 4)
	if _, err := store.CreateSegment(1, 4000); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	cfg := ParallelConfig{CoreLowWater: 1, CoreTarget: 2, BulkLowWater: 1, BulkTarget: 2}
	p, err := NewParallelPager(store, sch, cfg, FIFOPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pages := make([]int, 40)
	for i := range pages {
		pages[i] = i % 20
	}
	touchPages(t, sch, p, 1, pages)
	st := p.Stats()
	if st.Faults != 40 {
		t.Errorf("faults = %d, want 40", st.Faults)
	}
	if st.FaulterEvictions != 0 {
		t.Errorf("faulter evictions = %d, want 0", st.FaulterEvictions)
	}
	if p.KernelEvictions == 0 {
		t.Error("dedicated processes should have performed the evictions")
	}
	if transfers(store, "mem.bulk_to_disk") == 0 {
		t.Error("bulk-store freeing process should have pushed pages to disk")
	}
}

// TestFreeingWakeupsDoNotPileUp runs enough faults to keep both freeing
// processes busy and requires their availability channels to hold no
// backlog: a wakeup signalled while nobody waits is drained unread, so
// queueing it only grows the channel.
func TestFreeingWakeupsDoNotPileUp(t *testing.T) {
	store := tinyMem(t, 4, 4)
	if _, err := store.CreateSegment(1, 4000); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	cfg := ParallelConfig{CoreLowWater: 1, CoreTarget: 2, BulkLowWater: 1, BulkTarget: 2}
	p, err := NewParallelPager(store, sch, cfg, FIFOPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pages := make([]int, 400)
	for i := range pages {
		pages[i] = (i * 7) % 40
	}
	touchPages(t, sch, p, 1, pages)
	if p.KernelEvictions < 100 || transfers(store, "mem.bulk_to_disk") == 0 {
		t.Fatalf("freeing processes barely ran: %d evictions, %d bulk-to-disk moves",
			p.KernelEvictions, transfers(store, "mem.bulk_to_disk"))
	}
	for _, ch := range []*ipc.Channel{p.framesAvail, p.blocksAvail} {
		if n := ch.Pending(); n > 1 {
			t.Errorf("%s holds %d stale wakeups, want at most 1", ch.Name, n)
		}
	}
}

func TestParallelPagerFaulterPathShorterThanSequential(t *testing.T) {
	run := func(parallel bool) FaultStats {
		store := tinyMem(t, 4, 4)
		if _, err := store.CreateSegment(1, 4000); err != nil {
			t.Fatal(err)
		}
		clk := machine.NewClock()
		sch := sched.New(clk, nil)
		defer sch.Shutdown()
		sch.AddVP("cpu", false)
		var p Pager
		if parallel {
			pp, err := NewParallelPager(store, sch, ParallelConfig{CoreLowWater: 1, CoreTarget: 2, BulkLowWater: 1, BulkTarget: 2}, FIFOPolicy{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			p = pp
		} else {
			p = NewSequentialPager(store, FIFOPolicy{}, nil)
		}
		pages := make([]int, 30)
		for i := range pages {
			pages[i] = i
		}
		touchPages(t, sch, p, 1, pages)
		return p.Stats()
	}
	seq := run(false)
	par := run(true)
	if par.FaulterSteps >= seq.FaulterSteps {
		t.Errorf("parallel faulter steps (%d) should be below sequential (%d)", par.FaulterSteps, seq.FaulterSteps)
	}
	if par.FaulterEvictions != 0 || seq.FaulterEvictions == 0 {
		t.Errorf("evictions: par=%d seq=%d", par.FaulterEvictions, seq.FaulterEvictions)
	}
}

func TestParallelConfigValidation(t *testing.T) {
	store := tinyMem(t, 4, 4)
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	bad := []ParallelConfig{
		{CoreLowWater: 0, CoreTarget: 1, BulkLowWater: 1, BulkTarget: 1},
		{CoreLowWater: 2, CoreTarget: 1, BulkLowWater: 1, BulkTarget: 1},
		{CoreLowWater: 1, CoreTarget: 1, BulkLowWater: 0, BulkTarget: 1},
		{CoreLowWater: 1, CoreTarget: 1, BulkLowWater: 2, BulkTarget: 1},
	}
	for i, cfg := range bad {
		if _, err := NewParallelPager(store, sch, cfg, nil, nil); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestClockPolicySecondChance(t *testing.T) {
	store := tinyMem(t, 4, 8)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := store.PageIn(mem.PageID{SegUID: 1, Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	var pol ClockPolicy
	// First choice sweeps: all frames recently used, so the hand clears
	// bits and eventually picks one.
	v1, err := pol.ChooseVictim(store)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := store.FrameInfo(v1)
	if info.Free {
		t.Error("victim should be occupied")
	}
	// Touch one frame; the clock should prefer untouched frames.
	if _, err := store.ReadWord(v1, 0); err != nil {
		t.Fatal(err)
	}
	v2, err := pol.ChooseVictim(store)
	if err != nil {
		t.Fatal(err)
	}
	if v2 == v1 {
		t.Error("recently touched frame chosen over cold frames")
	}
}

// TestClockPolicyHand pins the clock's four rules: the hand persists
// across decisions, it skips free and wired frames, a used frame gets a
// second chance (its used bit cleared, chosen on the next revolution), and
// a table of only free and wired frames yields ErrNoVictim.
func TestClockPolicyHand(t *testing.T) {
	store := tinyMem(t, 8, 8)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	var occupied []mem.FrameID
	for i := 0; i < 6; i++ {
		f, _, err := store.PageIn(mem.PageID{SegUID: 1, Index: i})
		if err != nil {
			t.Fatal(err)
		}
		occupied = append(occupied, f)
	}
	if err := store.Wire(occupied[2], true); err != nil {
		t.Fatal(err)
	}
	// The evictable frames in hand order: ascending IDs, minus the free
	// and the wired ones.
	var ring []mem.FrameID
	for f := mem.FrameID(0); f < 8; f++ {
		info, _ := store.FrameInfo(f)
		if info.Evictable() {
			ring = append(ring, f)
		}
		if !info.Free {
			if err := store.ResetUsage(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(ring) != 5 {
		t.Fatalf("evictable frames = %v, want 5", ring)
	}
	var pol ClockPolicy
	choose := func(want mem.FrameID) {
		t.Helper()
		got, err := pol.ChooseVictim(store)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("victim = %d, want %d (ring %v)", got, want, ring)
		}
	}
	choose(ring[0])
	choose(ring[1]) // the hand moved on: no decision restarts at frame 0
	if _, err := store.ReadWord(ring[2], 0); err != nil {
		t.Fatal(err)
	}
	choose(ring[3]) // ring[2] was used: passed over once
	if info, _ := store.FrameInfo(ring[2]); info.Used {
		t.Error("second chance did not clear the used bit")
	}
	choose(ring[4])
	choose(ring[0]) // wrapped past the free and wired frames
	choose(ring[1])
	choose(ring[2]) // its second chance is spent

	for _, f := range ring {
		if err := store.Wire(f, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pol.ChooseVictim(store); err != ErrNoVictim {
		t.Errorf("all frames free or wired: err = %v, want ErrNoVictim", err)
	}
	if _, err := (FIFOPolicy{}).ChooseVictim(store); err != ErrNoVictim {
		t.Errorf("FIFO, all frames free or wired: err = %v, want ErrNoVictim", err)
	}
}

func TestPolicyNoCandidates(t *testing.T) {
	store := tinyMem(t, 2, 2)
	if _, err := (FIFOPolicy{}).ChooseVictim(store); err != ErrNoVictim {
		t.Error("FIFO with no candidates should return ErrNoVictim")
	}
	var pol ClockPolicy
	if _, err := pol.ChooseVictim(store); err != ErrNoVictim {
		t.Error("clock with no candidates should return ErrNoVictim")
	}
}

// TestVictimDecisionsAllocateNothing holds both levels' victim choice to
// zero allocations on a full 256-frame, 256-block store: the freeing
// processes make one of these per eviction.
func TestVictimDecisionsAllocateNothing(t *testing.T) {
	const n = 256
	store := tinyMem(t, n, n)
	if _, err := store.CreateSegment(1, 2*n*store.Config().PageWords); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*n; i++ {
		pid := mem.PageID{SegUID: 1, Index: i}
		if i >= n {
			// Core is full: move the page i-n to the bulk store first.
			loc, err := store.Locate(mem.PageID{SegUID: 1, Index: i - n})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := store.EvictToBulk(loc.Frame); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := store.PageIn(pid); err != nil {
			t.Fatal(err)
		}
	}
	if store.FreeFrameCount() != 0 || store.FreeBlockCount() != 0 {
		t.Fatalf("store not full: %d free frames, %d free blocks", store.FreeFrameCount(), store.FreeBlockCount())
	}
	var clock ClockPolicy
	if a := testing.AllocsPerRun(100, func() {
		if _, err := clock.ChooseVictim(store); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("core victim decision allocates %.1f objects, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := store.LowestBulkPage(); !ok {
			t.Fatal("no bulk victim in a full bulk store")
		}
	}); a != 0 {
		t.Errorf("bulk victim decision allocates %.1f objects, want 0", a)
	}
}

func TestForProcessAdapter(t *testing.T) {
	store := tinyMem(t, 4, 8)
	if _, err := store.CreateSegment(1, 100); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p := NewSequentialPager(store, nil, nil)
	handled := false
	sch.Spawn("user", func(pc *sched.ProcCtx) {
		h := ForProcess(p, pc)
		if err := h.HandlePageFault(fault(1, 0)); err != nil {
			t.Errorf("adapter: %v", err)
			return
		}
		handled = true
	})
	sch.Run(0)
	if !handled {
		t.Error("adapter did not run")
	}
}
