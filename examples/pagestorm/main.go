// Pagestorm: several processes thrash a memory hierarchy far smaller than
// their combined working sets, under both page-control designs. Watch the
// faulting path collapse: the sequential design makes every faulting
// process run the eviction cascade itself, while under the paper's new
// design the dedicated core-freeing and bulk-store-freeing kernel processes
// absorb all of it.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/multics"
)

const (
	users         = 3
	pagesPerUser  = 24
	touchesEach   = 150
	coreFrames    = 16
	bulkBlocks    = 32
	pageWords     = 32
	segmentLength = pagesPerUser * pageWords
)

func main() {
	fmt.Printf("workload: %d processes x %d touches over %d pages each; core=%d frames, bulk=%d blocks\n\n",
		users, touchesEach, pagesPerUser, coreFrames, bulkBlocks)
	for _, stage := range []multics.Stage{multics.StageIOConsolidated, multics.StageRestructured} {
		runStorm(stage)
	}
}

func runStorm(stage multics.Stage) {
	memCfg := mem.DefaultConfig()
	memCfg.PageWords = pageWords
	memCfg.CoreFrames = coreFrames
	memCfg.BulkBlocks = bulkBlocks
	sys, err := multics.NewWithConfig(core.Config{Stage: stage, Mem: &memCfg})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()

	design := "sequential page control (old)"
	if stage >= multics.StageRestructured {
		design = "parallel page control (new: dedicated kernel processes)"
	}
	fmt.Printf("--- %v: %s\n", stage, design)

	if err := sys.AddUser("Storm", "Load", "thrash77", multics.Secret); err != nil {
		log.Fatal(err)
	}
	sessions := make([]*multics.Session, users)
	segs := make([]*multics.Segment, users)
	for i := range sessions {
		s, err := sys.Login("Storm", "Load", "thrash77", multics.Unclassified)
		if err != nil {
			log.Fatal(err)
		}
		sessions[i] = s
		path := fmt.Sprintf(">data%d", i)
		if err := s.CreateSegment(path, segmentLength); err != nil {
			log.Fatal(err)
		}
		seg, err := s.Open(path, "")
		if err != nil {
			log.Fatal(err)
		}
		segs[i] = seg
	}

	// Each process walks its segment with a stride pattern under the
	// scheduler, so page-fault waits interleave.
	for i := range sessions {
		i := i
		sessions[i].Proc.Run(func(pc *sched.ProcCtx) {
			for t := 0; t < touchesEach; t++ {
				page := (t*5 + i) % pagesPerUser
				off := page * pageWords
				if err := segs[i].WriteWord(off, uint64(t)); err != nil {
					log.Fatalf("process %d touch %d: %v", i, t, err)
				}
				pc.Consume(3)
			}
		})
	}
	sys.Kernel.Services().Scheduler.Run(0)
	if blocked := sys.Kernel.Services().Scheduler.BlockedProcesses(); len(blocked) > 0 {
		for _, b := range blocked {
			if b.State() == sched.StateBlocked && b.Name != "core-freeing" && b.Name != "bulk-freeing" {
				log.Fatalf("deadlock: %s blocked on %s", b.Name, b.BlockReason())
			}
		}
	}

	st := sys.Kernel.Services().Pager.Stats()
	transfers := sys.Kernel.Services().Store.Config().Metrics
	fmt.Printf("  faults: %d, faulter ops: %d, faulter evictions: %d, max cascade: %d\n",
		st.Faults, st.FaulterSteps, st.FaulterEvictions, st.MaxCascade)
	fmt.Printf("  transfers: core->bulk %d, bulk->disk %d, bulk->core %d, disk->core %d\n",
		transfers.Counter("mem.core_to_bulk").Value(), transfers.Counter("mem.bulk_to_disk").Value(),
		transfers.Counter("mem.bulk_to_core").Value(), transfers.Counter("mem.disk_to_core").Value())
	fmt.Printf("  mean fault wait: %d vcycles; total virtual time: %d\n",
		st.WaitCycles/max64(st.Faults, 1), sys.Kernel.Services().Clock.Now())
	for _, vp := range sys.Kernel.Services().Scheduler.VPs() {
		if vp.Dedicated {
			fmt.Printf("  kernel process on %-18s busy %d vcycles\n", vp.Name, vp.BusyCycles())
		}
	}
	fmt.Println()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
