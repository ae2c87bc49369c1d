package pagectl

import (
	"errors"
	"fmt"

	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// evictionCPUCost is the CPU cost of one eviction's page-control
// bookkeeping, charged to whichever process performs it.
const evictionCPUCost = 5

// ParallelConfig tunes the new page-control design.
type ParallelConfig struct {
	// CoreLowWater is the free-frame count below which the core-freeing
	// process is awakened; it frees frames until CoreTarget are free.
	CoreLowWater int
	CoreTarget   int
	// BulkLowWater/BulkTarget play the same role for bulk-store blocks.
	BulkLowWater int
	BulkTarget   int
}

// DefaultParallelConfig returns water marks proportioned to the hierarchy.
func DefaultParallelConfig(memCfg mem.Config) ParallelConfig {
	cl := memCfg.CoreFrames / 8
	if cl < 2 {
		cl = 2
	}
	bl := memCfg.BulkBlocks / 8
	if bl < 2 {
		bl = 2
	}
	return ParallelConfig{
		CoreLowWater: cl,
		CoreTarget:   cl * 2,
		BulkLowWater: bl,
		BulkTarget:   bl * 2,
	}
}

// ParallelPager is the paper's new page-control structure: dedicated
// kernel processes keep free frames and free bulk blocks available, so a
// faulting process only waits for a frame and fetches its page.
type ParallelPager struct {
	store  *mem.Store
	sch    *sched.Scheduler
	cfg    ParallelConfig
	policy VictimPolicy

	// framesAvail is signalled by the core-freeing process each time it
	// frees a frame while a faulting process awaits it (core is
	// exhausted).
	framesAvail *ipc.Channel
	// coreWork wakes the core-freeing process; bulkWork wakes the
	// bulk-store-freeing process; blocksAvail is signalled by the
	// bulk-store-freeing process each time it frees a block while the
	// core-freeing process awaits one.
	coreWork    *ipc.Channel
	bulkWork    *ipc.Channel
	blocksAvail *ipc.Channel

	coreProc *sched.Process
	bulkProc *sched.Process

	stats FaultStats
	pm    pagerMetrics
	// KernelEvictions counts evictions performed by the dedicated
	// processes (work moved *out* of the faulting path).
	KernelEvictions int64
}

// NewParallelPager creates the pager and spawns its two dedicated kernel
// processes on dedicated virtual processors, per the paper's two-layer
// process design. It counts fault handling into reg under pagectl.*
// names.
func NewParallelPager(store *mem.Store, sch *sched.Scheduler, cfg ParallelConfig, policy VictimPolicy, reg *metrics.Registry) (*ParallelPager, error) {
	if cfg.CoreLowWater <= 0 || cfg.CoreTarget < cfg.CoreLowWater {
		return nil, fmt.Errorf("pagectl: bad core water marks %+v", cfg)
	}
	if cfg.BulkLowWater <= 0 || cfg.BulkTarget < cfg.BulkLowWater {
		return nil, fmt.Errorf("pagectl: bad bulk water marks %+v", cfg)
	}
	if policy == nil {
		policy = &ClockPolicy{}
	}
	p := &ParallelPager{store: store, sch: sch, cfg: cfg, policy: policy}
	p.pm.resolve(reg)
	p.framesAvail = ipc.NewChannel("pc.frames-available", sch)
	p.coreWork = ipc.NewChannel("pc.core-work", sch)
	p.bulkWork = ipc.NewChannel("pc.bulk-work", sch)
	p.blocksAvail = ipc.NewChannel("pc.blocks-available", sch)

	coreVP := sch.AddVP("vp.core-freeing", true)
	bulkVP := sch.AddVP("vp.bulk-freeing", true)
	var err error
	p.coreProc, err = sch.SpawnDedicated(coreVP, "core-freeing", p.coreFreeingBody)
	if err != nil {
		return nil, err
	}
	p.bulkProc, err = sch.SpawnDedicated(bulkVP, "bulk-freeing", p.bulkFreeingBody)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Stats implements Pager.
func (p *ParallelPager) Stats() FaultStats { return p.pm.stats(p.stats) }

// coreFreeingBody is the dedicated process that "runs in a loop making sure
// that some small number of free primary memory blocks always exist".
func (p *ParallelPager) coreFreeingBody(pc *sched.ProcCtx) {
	for {
		for p.store.FreeFrameCount() < p.cfg.CoreTarget {
			victim, err := p.policy.ChooseVictim(p.store)
			if err != nil {
				// Nothing evictable right now; wait for the situation to
				// change rather than spin.
				break
			}
			_, lat, err := p.store.EvictToBulk(victim)
			if errors.Is(err, mem.ErrNoFreeBlock) {
				// Bulk store exhausted: wake the bulk freeing process and
				// BLOCK until it reports a freed block. Spinning with a
				// yield would keep this dedicated process ready forever
				// and prevent the scheduler from ever firing the timer the
				// bulk process sleeps on for its disk transfer. Stale
				// notifications are drained first so the Await waits for a
				// fresh block.
				drain(p.blocksAvail)
				if err := p.bulkWork.Signal(pc.Process(), ipc.Event{}); err != nil {
					return
				}
				if _, err := p.blocksAvail.Await(pc); err != nil {
					return
				}
				continue
			}
			if errors.Is(err, mem.ErrIO) {
				// Injected transient I/O error: back off and retry rather
				// than killing the dedicated process.
				p.pm.ioRetries.Inc()
				pc.Sleep(ioRetryBackoff)
				continue
			}
			if err != nil {
				return
			}
			p.KernelEvictions++
			pc.Consume(evictionCPUCost) // page-control bookkeeping
			pc.Sleep(lat)               // the I/O happens in THIS process, not the faulter
			// Tell any faulting process waiting for a frame. With none
			// waiting the wakeup would only be drained unread, so none is
			// queued.
			if p.framesAvail.Waiting() > 0 {
				if err := p.framesAvail.Signal(pc.Process(), ipc.Event{}); err != nil {
					return
				}
			}
		}
		// Keep the bulk freeing process ahead of demand ("driven ... by
		// the primary memory freeing process").
		if p.store.FreeBlockCount() < p.cfg.BulkLowWater {
			if err := p.bulkWork.Signal(pc.Process(), ipc.Event{}); err != nil {
				return
			}
		}
		if _, err := p.coreWork.Await(pc); err != nil {
			return
		}
	}
}

// bulkFreeingBody keeps bulk-store blocks free by pushing pages to disk,
// "driven ... by the primary memory freeing process".
func (p *ParallelPager) bulkFreeingBody(pc *sched.ProcCtx) {
	for {
		for p.store.FreeBlockCount() < p.cfg.BulkTarget {
			// The block holding the lowest-numbered page: deterministic
			// and, because page-ins recycle blocks, roughly oldest-first.
			block, ok := p.store.LowestBulkPage()
			if !ok {
				break // bulk store empty of occupied blocks
			}
			lat, err := p.store.BulkToDisk(block)
			if errors.Is(err, mem.ErrIO) {
				p.pm.ioRetries.Inc()
				pc.Sleep(ioRetryBackoff)
				continue
			}
			if err != nil {
				return
			}
			p.KernelEvictions++
			pc.Consume(evictionCPUCost)
			pc.Sleep(lat)
			// Only a waiting core-freeing process needs the wakeup; it
			// drains stale ones before it waits.
			if p.blocksAvail.Waiting() > 0 {
				if err := p.blocksAvail.Signal(pc.Process(), ipc.Event{}); err != nil {
					return
				}
			}
		}
		if _, err := p.bulkWork.Await(pc); err != nil {
			return
		}
	}
}

// Handle implements Pager: the greatly simplified faulting path — wake the
// core-freeing process if frames ran out, wait, fetch the page.
func (p *ParallelPager) Handle(pc *sched.ProcCtx, pf *machine.PageFault) error {
	start := pc.Now()
	defer func() { p.pm.fault(pc.Now() - start) }()
	pid := mem.PageID{SegUID: pf.SegTag, Index: pf.Page}
	ioAttempts := 0
	for {
		frame, lat, err := p.store.PageIn(pid)
		if err == nil {
			_ = frame
			p.stats.FaulterSteps++
			if lat > 0 {
				pc.Sleep(lat)
			}
			// Refill the free pool in the background if we dipped below
			// the low-water mark.
			if p.store.FreeFrameCount() < p.cfg.CoreLowWater {
				if err := p.coreWork.Signal(pc.Process(), ipc.Event{}); err != nil {
					return err
				}
			}
			return nil
		}
		if errors.Is(err, mem.ErrIO) {
			// Transient backing-store error: back off and retry; the store
			// is unchanged, so the page-in is safe to reissue.
			ioAttempts++
			if ioAttempts > ioRetryLimit {
				return fmt.Errorf("pagectl(parallel): page-in of %v: %d retries exhausted: %w", pid, ioRetryLimit, err)
			}
			p.pm.ioRetries.Inc()
			pc.Sleep(ioRetryBackoff << (ioAttempts - 1))
			continue
		}
		if !errors.Is(err, mem.ErrNoFreeFrame) {
			return fmt.Errorf("pagectl(parallel): page-in of %v: %w", pid, err)
		}
		// The simplified path: signal the core-freeing process and wait.
		// Stale frames-available notifications (the freeing process
		// signals once per eviction while anyone waits, and other
		// faulters may have consumed the frames) are drained first, so
		// the Await below genuinely blocks until fresh frames appear
		// instead of spinning.
		p.stats.FaulterSteps++
		drain(p.framesAvail)
		if err := p.coreWork.Signal(pc.Process(), ipc.Event{}); err != nil {
			return err
		}
		if _, err := p.framesAvail.Await(pc); err != nil {
			return err
		}
	}
}

// drain consumes every pending event on ch without blocking, so the next
// Await on ch waits for a fresh signal.
func drain(ch *ipc.Channel) {
	for {
		if _, ok := ch.TryAwait(); !ok {
			return
		}
	}
}
