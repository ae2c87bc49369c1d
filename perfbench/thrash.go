package main

import (
	"fmt"
	"time"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagectl"
	"repro/internal/sched"
	"repro/multics"
)

var thrashWorkload = &spec{
	name: "thrash",
	why: "1 kernel, 4 processes touching 2048 pages (8x core, 4x core+bulk), 80% of touches on the hottest 20%, " +
		"25% writes, checkpoint every 8192 touches: page faults, freeing processes, mem, journal",
	ops:     40000,
	prepare: prepareThrash,
}

const (
	thrashProcs     = 4
	thrashSegs      = 4
	thrashSegPages  = 512
	thrashPageWords = 64
	thrashCore      = 256
	thrashBulk      = 256
	thrashPages     = thrashSegs * thrashSegPages
	// thrashEpoch is the number of touches between checkpoints.
	thrashEpoch = 8192
)

// touch is one op: a read or a write of one word by one process.
type touch struct {
	proc, seg, word int
	page            int
	write           bool
	val             uint64
}

// thrashInputs holds the warm-up and timed touch streams.
type thrashInputs struct {
	warm    []touch
	touches []touch
}

// prepareThrash writes every page once (so core and bulk fill and the
// rest spills to the journal), then draws skewed touches: 80% land on a
// seeded hot fifth of the pages, a quarter of them writes.
func prepareThrash(seed int64, ops int) (inputs, error) {
	s := uint64(seed)
	perm := make([]int, thrashPages)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(hash64(s, 6, uint64(i)) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	hot, cold := perm[:thrashPages/5], perm[thrashPages/5:]
	skewed := func(tag uint64, i int) touch {
		h := hash64(s, tag, uint64(i))
		set := cold
		if h%100 < 80 {
			set = hot
		}
		p := set[int(h>>8)%len(set)]
		return touch{
			proc: i % thrashProcs, seg: p / thrashSegPages, page: p % thrashSegPages,
			word: int(h>>32) % thrashPageWords, write: (h>>40)%4 == 0,
			val: hash64(s, tag+1, uint64(i)) >> 1,
		}
	}
	in := &thrashInputs{}
	for p := 0; p < thrashPages; p++ {
		in.warm = append(in.warm, touch{proc: p % thrashProcs, seg: p / thrashSegPages, page: p % thrashSegPages,
			write: true, val: hash64(s, 9, uint64(p)) >> 1})
	}
	for i := 0; i < ops/4; i++ {
		in.warm = append(in.warm, skewed(10, i))
	}
	for i := 0; i < ops; i++ {
		in.touches = append(in.touches, skewed(12, i))
	}
	return in, nil
}

type thrashSys struct {
	in      *thrashInputs
	tr      *tracer
	sys     *multics.System
	clk     *machine.Clock
	pager   pagectl.Pager
	sch     *sched.Scheduler
	workers []*worker
	// segs[p][s] is process p's handle on segment s.
	segs [][]*multics.Segment
	// shadow is the oracle: the last value written to every word.
	shadow []uint64
	epochs int
}

func (in *thrashInputs) boot(tr *tracer) (system, error) {
	bs, _, err := blockstore.Open(blockstore.Config{Media: blockstore.NewMemMedia()})
	if err != nil {
		return nil, err
	}
	backing := &timedBacking{inner: bs, tr: tr}
	mc := mem.DefaultConfig()
	mc.PageWords = thrashPageWords
	mc.CoreFrames = thrashCore
	mc.BulkBlocks = thrashBulk
	mc.Backing = backing
	sys, err := multics.NewWithConfig(core.Config{Stage: multics.StageRestructured, Mem: &mc})
	if err != nil {
		return nil, err
	}
	svc := sys.Kernel.Services()
	backing.clk = svc.Clock
	s := &thrashSys{in: in, tr: tr, sys: sys, clk: svc.Clock, pager: svc.Pager, sch: svc.Scheduler,
		shadow: make([]uint64, thrashPages*thrashPageWords)}
	if err := s.build(); err != nil {
		sys.Shutdown()
		return nil, err
	}
	return s, nil
}

func segPath(i int) string { return ">thrash>s" + itoa(i) }

func (s *thrashSys) build() error {
	const person, project, pw = "Thrash", "Load", "thrash pw"
	if err := s.sys.AddUser(person, project, pw, multics.Unclassified); err != nil {
		return err
	}
	owner, err := s.sys.Login(person, project, pw, multics.Unclassified)
	if err != nil {
		return err
	}
	if err := owner.MakeDir(">thrash"); err != nil {
		return err
	}
	for i := 0; i < thrashSegs; i++ {
		if err := owner.CreateSegment(segPath(i), thrashSegPages*thrashPageWords); err != nil {
			return err
		}
	}
	for p := 0; p < thrashProcs; p++ {
		sess, err := s.sys.Login(person, project, pw, multics.Unclassified)
		if err != nil {
			return err
		}
		var segs []*multics.Segment
		for i := 0; i < thrashSegs; i++ {
			seg, err := sess.Open(segPath(i), "")
			if err != nil {
				return err
			}
			segs = append(segs, seg)
		}
		s.segs = append(s.segs, segs)
		s.workers = append(s.workers, startWorker(sess.Proc, s.sch))
	}
	warm := &outcome{}
	if err := s.touchAll(warm, s.in.warm, false); err != nil {
		return err
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.firstErrs[0])
	}
	return nil
}

func (s *thrashSys) run(o *outcome) error { return s.touchAll(o, s.in.touches, true) }

// touchAll performs the touches one at a time, each on its process under
// the scheduler, and lets the system go quiescent after each, so the
// freeing processes run between touches. With checkpoints on, the system
// checkpoints after every thrashEpoch touches. (Touches are not
// overlapped: with several faulting processes in flight the parallel
// pager can evict a page between its page-in and the processor's single
// retry of the access, which fails the access.)
func (s *thrashSys) touchAll(o *outcome, ts []touch, checkpoints bool) error {
	for i, t := range ts {
		var vc int64
		if err := s.workers[t.proc].call(s.tr, func() { vc = s.touch(o, t) }); err != nil {
			return fmt.Errorf("touch %d: %w", i, err)
		}
		o.vc = append(o.vc, vc)
		if checkpoints && (i+1)%thrashEpoch == 0 {
			if err := s.checkpoint(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// touch has process t.proc read or write one word, checks a read against
// the last value written there, and returns the touch's virtual latency.
// It runs on the process.
func (s *thrashSys) touch(o *outcome, t touch) int64 {
	o.attempted++
	seg := s.segs[t.proc][t.seg]
	off := t.page*thrashPageWords + t.word
	idx := (t.seg*thrashSegPages+t.page)*thrashPageWords + t.word
	faults := s.pager.Stats().Faults
	var start time.Time
	if s.tr != nil {
		start = time.Now()
	}
	vc0 := s.clk.Now()
	var v uint64
	var err error
	if t.write {
		v, err = t.val, seg.WriteWord(off, t.val)
	} else {
		v, err = seg.ReadWord(off)
	}
	vc := s.clk.Now() - vc0
	if s.tr != nil {
		now := time.Now()
		k := kTouchHit
		if s.pager.Stats().Faults != faults {
			k = kTouchFault
		}
		s.tr.elapsed(k, now.Sub(start), vc)
		o.host = append(o.host, int64(now.Sub(start)))
		o.busyNs += int64(now.Sub(start))
	}
	switch {
	case err != nil:
		o.fail("touch seg %d page %d: %v", t.seg, t.page, err)
	case t.write:
		s.shadow[idx] = t.val
	case v != s.shadow[idx]:
		o.fail("read seg %d page %d word %d: %d, want %d", t.seg, t.page, t.word, v, s.shadow[idx])
	}
	o.digest.fold(uint64(idx), v)
	return vc
}

func (s *thrashSys) checkpoint(o *outcome) error {
	s.epochs++
	sp := s.tr.begin(s.clk)
	rep, err := s.sys.Checkpoint(map[string]string{"epoch": itoa(s.epochs)})
	s.tr.end(kCheckpoint, s.clk, sp)
	if err != nil {
		return fmt.Errorf("checkpoint %d: %w", s.epochs, err)
	}
	o.digest.fold(uint64(rep.PagesFlushed), uint64(rep.Cycles))
	o.digest.foldString(rep.HierarchyDigest)
	return nil
}

func (s *thrashSys) vclock() int64 { return s.clk.Now() }

func (s *thrashSys) counters() map[string]int64 { return kernelCounters(s.sys.Kernel) }

func (s *thrashSys) close() { s.sys.Shutdown() }
