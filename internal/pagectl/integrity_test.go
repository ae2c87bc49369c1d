package pagectl

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// thrashAndVerify writes a distinct value to every page of an overcommitted
// segment through the pager, in a scrambled order, then reads every page
// back and verifies the values. It returns false on any corruption or
// pager failure — the property that page control may move data anywhere in
// the hierarchy but may never lose or mix it.
func thrashAndVerify(parallel bool, order []uint8, pages int) bool {
	cfg := mem.DefaultConfig()
	cfg.PageWords = 4
	cfg.CoreFrames = 3
	cfg.BulkBlocks = 5
	store, err := mem.NewStore(cfg)
	if err != nil {
		return false
	}
	if _, err := store.CreateSegment(1, pages*cfg.PageWords); err != nil {
		return false
	}
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	// The parallel design MUST use a usage-aware policy (the clock, the
	// default): with FIFO and an aggressive free target, the core-freeing
	// process deterministically re-evicts the page a faulter just loaded
	// while the faulter sleeps on the transfer — a livelock the real
	// system's usage bits exist to prevent.
	var pager Pager
	if parallel {
		pp, err := NewParallelPager(store, sch,
			ParallelConfig{CoreLowWater: 1, CoreTarget: 1, BulkLowWater: 1, BulkTarget: 2}, nil, nil)
		if err != nil {
			return false
		}
		pager = pp
	} else {
		pager = NewSequentialPager(store, FIFOPolicy{}, nil)
	}

	// touch ensures the page is resident and returns its frame. Under the
	// parallel design the freeing processes may re-evict a freshly loaded
	// page while the faulter sleeps on the transfer, so residency must be
	// re-checked in a loop — exactly what the hardware's
	// retry-after-fault does.
	touch := func(pc *sched.ProcCtx, page int) (mem.FrameID, bool) {
		pid := mem.PageID{SegUID: 1, Index: page}
		for attempt := 0; attempt < 100; attempt++ {
			loc, err := store.Locate(pid)
			if err != nil {
				return 0, false
			}
			if loc.Level == mem.LevelCore {
				return loc.Frame, true
			}
			if err := pager.Handle(pc, &machine.PageFault{SegTag: 1, Page: page}); err != nil {
				return 0, false
			}
		}
		return 0, false
	}

	ok := true
	verifier := sch.Spawn("verifier", func(pc *sched.ProcCtx) {
		// Write every page exactly once, in a rotated order derived from
		// `order` (a rotation is a permutation; per-index offsets are not).
		rot := 0
		if len(order) > 0 {
			rot = int(order[0])
		}
		for i := 0; i < pages; i++ {
			page := (i + rot) % pages
			f, good := touch(pc, page)
			if !good {
				ok = false
				return
			}
			if err := store.WriteWord(f, 0, uint64(page)*1000+7); err != nil {
				ok = false
				return
			}
		}
		// Extra thrashing touches to force extra migrations.
		for i, o := range order {
			if _, good := touch(pc, (int(o)+i)%pages); !good {
				ok = false
				return
			}
		}
		// Verify everything.
		for page := 0; page < pages; page++ {
			f, good := touch(pc, page)
			if !good {
				ok = false
				return
			}
			v, err := store.ReadWord(f, 0)
			if err != nil || v != uint64(page)*1000+7 {
				ok = false
				return
			}
		}
	})
	sch.Run(0)
	if verifier.State() != sched.StateDone {
		return false // deadlock or starvation
	}
	return ok
}

// Property: no interleaving of touches ever corrupts page contents under
// the sequential design.
func TestQuickSequentialPagerIntegrity(t *testing.T) {
	f := func(order []uint8) bool { return thrashAndVerify(false, order, 12) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: same, under the parallel design with its dedicated kernel
// processes.
func TestQuickParallelPagerIntegrity(t *testing.T) {
	f := func(order []uint8) bool { return thrashAndVerify(true, order, 12) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBothDesignsSurviveCompetingFaulters runs three faulting processes
// against a tiny hierarchy under both designs: everyone must finish and
// all data must survive.
func TestBothDesignsSurviveCompetingFaulters(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		cfg := mem.DefaultConfig()
		cfg.PageWords = 4
		cfg.CoreFrames = 4
		cfg.BulkBlocks = 6
		store, err := mem.NewStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clk := machine.NewClock()
		sch := sched.New(clk, nil)
		sch.AddVP("cpu-a", false)
		sch.AddVP("cpu-b", false)
		var pager Pager
		if parallel {
			pp, err := NewParallelPager(store, sch,
				ParallelConfig{CoreLowWater: 1, CoreTarget: 2, BulkLowWater: 1, BulkTarget: 2}, FIFOPolicy{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			pager = pp
		} else {
			pager = NewSequentialPager(store, FIFOPolicy{}, nil)
		}
		const users, pages = 3, 8
		for u := 0; u < users; u++ {
			if _, err := store.CreateSegment(uint64(u+1), pages*cfg.PageWords); err != nil {
				t.Fatal(err)
			}
		}
		finished := 0
		for u := 0; u < users; u++ {
			u := u
			sch.Spawn("faulter", func(pc *sched.ProcCtx) {
				for round := 0; round < 3; round++ {
					for page := 0; page < pages; page++ {
						pid := mem.PageID{SegUID: uint64(u + 1), Index: page}
						loc, err := store.Locate(pid)
						if err != nil {
							t.Errorf("locate: %v", err)
							return
						}
						if loc.Level != mem.LevelCore {
							if err := pager.Handle(pc, &machine.PageFault{SegTag: uint64(u + 1), Page: page}); err != nil {
								t.Errorf("parallel=%v user %d: %v", parallel, u, err)
								return
							}
						}
					}
				}
				finished++
			})
		}
		sch.Run(0)
		if finished != users {
			t.Errorf("parallel=%v: %d of %d faulters finished", parallel, finished, users)
		}
		sch.Shutdown()
	}
}
