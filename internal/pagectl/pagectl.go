// Package pagectl implements Multics page control twice, matching the
// before/after of the paper's process-structure simplification:
//
// SequentialPager is the old design. When a process takes a missing-page
// fault, the fault handler runs *in the faulting process* and performs the
// whole cascade synchronously: if no primary-memory frame is free it must
// first move a page to the bulk store; if no bulk-store block is free it
// must first move a page from the bulk store to disk; only then can it
// fetch the wanted page.
//
// ParallelPager is the new design. One dedicated kernel process runs in a
// loop keeping a small number of primary-memory frames free; another keeps
// bulk-store blocks free, driven by the first. A faulting process "can just
// wait until a primary memory block is free and then initiate the transfer
// of the desired page into primary memory".
//
// Both pagers expose identical fault-handling semantics, so they can be
// swapped under the same workload to regenerate the paper's comparison.
package pagectl

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// VictimPolicy selects which occupied, unwired frame to evict. The policy
// sees only frame metadata — never page contents — which is what makes the
// policy/mechanism ring split of internal/policy possible.
type VictimPolicy interface {
	// ChooseVictim picks an occupied, unwired frame of store, reading live
	// frame state through FrameInfo and ResetUsage. It returns ErrNoVictim
	// when every frame is free or wired.
	ChooseVictim(store *mem.Store) (mem.FrameID, error)
}

// ErrNoVictim is returned when no frame can be evicted (all wired or free).
var ErrNoVictim = errors.New("pagectl: no evictable frame")

// ClockPolicy is the default replacement policy: a second-chance clock
// whose hand is a frame ID that persists across decisions. The hand walks
// the live frame table, skipping free and wired frames; a frame used since
// the hand last passed has its used bit cleared and is passed over once.
// The zero value is ready to use; a ClockPolicy serves one store.
type ClockPolicy struct {
	hand mem.FrameID
}

// ChooseVictim implements VictimPolicy. It makes at most two revolutions:
// the first clears used bits, so the second finds a frame unused since.
// Should touches racing the sweep leave nothing unused, it takes the first
// evictable frame the sweep passed.
func (c *ClockPolicy) ChooseVictim(store *mem.Store) (mem.FrameID, error) {
	n := mem.FrameID(store.Config().CoreFrames)
	first := mem.FrameID(-1)
	for step := mem.FrameID(0); step < 2*n; step++ {
		if step == n && first < 0 {
			break // a whole revolution found only free and wired frames
		}
		f := c.hand
		if c.hand++; c.hand == n {
			c.hand = 0
		}
		info, err := store.FrameInfo(f)
		if err != nil {
			return 0, err
		}
		if !info.Evictable() {
			continue
		}
		if first < 0 {
			first = f
		}
		if info.Used {
			if err := store.ResetUsage(f); err != nil {
				return 0, err
			}
			continue
		}
		return f, nil
	}
	if first < 0 {
		return 0, ErrNoVictim
	}
	return first, nil
}

// FIFOPolicy evicts the lowest-numbered occupied, unwired frame; simple
// and deterministic, used as the baseline comparator policy.
type FIFOPolicy struct{}

// ChooseVictim implements VictimPolicy by walking up from frame 0.
func (FIFOPolicy) ChooseVictim(store *mem.Store) (mem.FrameID, error) {
	n := mem.FrameID(store.Config().CoreFrames)
	for f := mem.FrameID(0); f < n; f++ {
		info, err := store.FrameInfo(f)
		if err != nil {
			return 0, err
		}
		if info.Evictable() {
			return f, nil
		}
	}
	return 0, ErrNoVictim
}

// FaultStats aggregates what the faulting processes experienced; the E5
// experiment compares these across the two designs. Faults, WaitCycles
// and IORetries are read back from the pager's pagectl.* counters; the
// other fields have no counter twin and are kept by the pager itself.
type FaultStats struct {
	// Faults is the number of page faults handled.
	Faults int64 `json:"faults"`
	// WaitCycles is the total virtual time faulting processes spent from
	// fault to resolution.
	WaitCycles int64 `json:"wait_cycles"`
	// FaulterSteps counts the distinct page-control operations executed in
	// the faulting process itself (the paper's "complex series of steps").
	FaulterSteps int64 `json:"faulter_steps"`
	// FaulterEvictions counts evictions the faulting process had to
	// perform itself (always zero for the parallel design).
	FaulterEvictions int64 `json:"faulter_evictions"`
	// MaxCascade is the deepest eviction cascade a single fault triggered
	// in the faulting process.
	MaxCascade int `json:"max_cascade"`
	// IORetries counts transient backing-store I/O errors (mem.ErrIO)
	// absorbed by retry-with-backoff instead of failing the fault.
	IORetries int64 `json:"io_retries"`
}

// pagerMetrics holds the counters both page-control designs count
// through: pagectl.faults, pagectl.wait_cycles, pagectl.io_retries. They
// are the only tally of those events; Stats reads them back.
type pagerMetrics struct {
	faults     *metrics.Counter
	waitCycles *metrics.Counter
	ioRetries  *metrics.Counter
}

// resolve binds the counters in reg.
func (pm *pagerMetrics) resolve(reg *metrics.Registry) {
	pm.faults = reg.Counter("pagectl.faults")
	pm.waitCycles = reg.Counter("pagectl.wait_cycles")
	pm.ioRetries = reg.Counter("pagectl.io_retries")
}

func (pm *pagerMetrics) fault(wait int64) {
	pm.faults.Inc()
	pm.waitCycles.Add(wait)
}

// stats returns st with the counted fields read from the counters.
func (pm *pagerMetrics) stats(st FaultStats) FaultStats {
	st.Faults = pm.faults.Value()
	st.WaitCycles = pm.waitCycles.Value()
	st.IORetries = pm.ioRetries.Value()
	return st
}

// ioRetryLimit bounds retry-with-backoff on transient backing-store I/O
// errors (mem.ErrIO): a fault is failed only after the limit is
// exhausted. ioRetryBackoff is the first retry's sleep in vcycles,
// doubled on each subsequent attempt.
const (
	ioRetryLimit   = 6
	ioRetryBackoff = 8
)

// Pager is the interface both designs implement.
type Pager interface {
	// Handle services a page fault on behalf of the faulting process
	// running in pc. It returns when the page is resident.
	Handle(pc *sched.ProcCtx, pf *machine.PageFault) error
	// Stats returns the accumulated fault statistics.
	Stats() FaultStats
}

// ForProcess adapts a Pager to machine.PageFaultHandler for one process
// context, so a Processor can deliver faults taken by simulated code.
func ForProcess(p Pager, pc *sched.ProcCtx) machine.PageFaultHandler {
	return machine.PageFaultHandlerFunc(func(pf *machine.PageFault) error {
		return p.Handle(pc, pf)
	})
}

// SequentialPager is the old Multics design: the entire eviction cascade
// runs synchronously in the faulting process.
type SequentialPager struct {
	store  *mem.Store
	policy VictimPolicy
	stats  FaultStats
	pm     pagerMetrics
}

// NewSequentialPager returns the old-design pager, counting fault
// handling into reg under pagectl.* names.
func NewSequentialPager(store *mem.Store, policy VictimPolicy, reg *metrics.Registry) *SequentialPager {
	if policy == nil {
		policy = &ClockPolicy{}
	}
	s := &SequentialPager{store: store, policy: policy}
	s.pm.resolve(reg)
	return s
}

// Stats implements Pager.
func (s *SequentialPager) Stats() FaultStats { return s.pm.stats(s.stats) }

// Handle implements Pager: fetch the page, performing however many
// evictions that requires, all in the faulting process.
func (s *SequentialPager) Handle(pc *sched.ProcCtx, pf *machine.PageFault) error {
	start := pc.Now()
	defer func() { s.pm.fault(pc.Now() - start) }()
	pid := mem.PageID{SegUID: pf.SegTag, Index: pf.Page}
	cascade := 0
	ioAttempts := 0
	for {
		frame, lat, err := s.store.PageIn(pid)
		if err == nil {
			_ = frame
			s.stats.FaulterSteps++
			if lat > 0 {
				pc.Sleep(lat)
			}
			if cascade > s.stats.MaxCascade {
				s.stats.MaxCascade = cascade
			}
			return nil
		}
		if errors.Is(err, mem.ErrIO) {
			// Transient backing-store error: back off and retry; the store
			// is unchanged, so the page-in is safe to reissue.
			ioAttempts++
			if ioAttempts > ioRetryLimit {
				return fmt.Errorf("pagectl(sequential): page-in of %v: %d retries exhausted: %w", pid, ioRetryLimit, err)
			}
			s.pm.ioRetries.Inc()
			pc.Sleep(ioRetryBackoff << (ioAttempts - 1))
			continue
		}
		if !errors.Is(err, mem.ErrNoFreeFrame) {
			return fmt.Errorf("pagectl(sequential): page-in of %v: %w", pid, err)
		}
		// No free frame: the faulting process itself must make room.
		cascade++
		if err := s.evictOne(pc); err != nil {
			return fmt.Errorf("pagectl(sequential): making room for %v: %w", pid, err)
		}
	}
}

// maxEvictAttempts bounds the eviction retry loop: under heavy
// multiprogramming, resources a faulting process frees can be consumed by
// competing faulters while it sleeps on the transfer, so each step must be
// re-attempted — but a bound converts pathological starvation into an
// error rather than an endless loop.
const maxEvictAttempts = 64

// evictOne frees one primary-memory frame in the calling process,
// cascading to the bulk-store level when necessary — the paper's "complex
// series of steps", all executed by the process that merely wanted its
// page. Every sleep is a window in which a competing faulting process can
// steal what this one freed, hence the retry structure.
func (s *SequentialPager) evictOne(pc *sched.ProcCtx) error {
	for attempt := 0; attempt < maxEvictAttempts; attempt++ {
		victim, err := s.policy.ChooseVictim(s.store)
		if err != nil {
			return err
		}
		s.stats.FaulterSteps++
		_, lat, err := s.store.EvictToBulk(victim)
		if err == nil {
			s.stats.FaulterEvictions++
			pc.Sleep(lat)
			return nil
		}
		if !errors.Is(err, mem.ErrNoFreeBlock) {
			// The victim vanished while we were deciding (another faulter
			// evicted it): choose again.
			continue
		}
		// The bulk store is full too: move a bulk page to disk first.
		block, ok := s.store.LowestBulkPage()
		if !ok {
			return errors.New("pagectl: bulk store reported full but no occupied block found")
		}
		s.stats.FaulterSteps++
		lat2, err := s.store.BulkToDisk(block)
		if err != nil {
			// The block raced away; start over.
			continue
		}
		pc.Sleep(lat2)
		// Retry the whole cascade: the freed block may already be gone.
	}
	return errors.New("pagectl(sequential): eviction starved by competing faulters")
}
