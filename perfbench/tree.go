package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/multics"
)

var treeWorkload = &spec{
	name: "tree",
	why: "1 kernel, 4 readers over 3072 segments in 96 directories: 70% open-read-close, 10% list, " +
		"10% create-write-delete, 10% revoke-deny-regrant; core never fills: gates, path walk, KST, fs ACL cache",
	ops:     30000,
	prepare: prepareTree,
}

const (
	treeTop      = 8  // directories under >tree
	treeSub      = 12 // directories under each of those
	treeSegs     = 32 // segments in each leaf directory
	treeReaders  = 4
	treeSegWords = 64
	treeProject  = "Tree"
	treeOwner    = "Owner"
)

// Tree op kinds, in mix order.
const (
	treeRead = iota
	treeList
	treeCreate
	treeRevoke
	numTreeKinds
)

type treeSeg struct {
	path string
	off  int
	val  uint64
}

type treeOp struct {
	kind   int
	reader int
	// target indexes segs (read, revoke) or dirs (list).
	target int
	// name, off and val shape a create-write-delete.
	name string
	off  int
	val  uint64
}

// treeInputs is the tree's shape, contents and op sequence.
type treeInputs struct {
	dirs    []string // parents before children
	listing []string // expected listing of each dir, names joined by newlines
	segs    []treeSeg
	ops     []treeOp
}

func prepareTree(seed int64, ops int) (inputs, error) {
	s := uint64(seed)
	in := &treeInputs{}
	addDir := func(path string, children []string) {
		sorted := append([]string(nil), children...)
		sort.Strings(sorted)
		in.dirs = append(in.dirs, path)
		in.listing = append(in.listing, strings.Join(sorted, "\n"))
	}
	var top []string
	for t := 0; t < treeTop; t++ {
		top = append(top, nameFrom(hash64(s, 1, uint64(t)), t))
	}
	addDir(">tree", top)
	for t, tn := range top {
		var sub []string
		for u := 0; u < treeSub; u++ {
			sub = append(sub, nameFrom(hash64(s, 2, uint64(t), uint64(u)), u))
		}
		addDir(">tree>"+tn, sub)
	}
	for t, tn := range top {
		for u := 0; u < treeSub; u++ {
			dir := ">tree>" + tn + ">" + nameFrom(hash64(s, 2, uint64(t), uint64(u)), u)
			var names []string
			for g := 0; g < treeSegs; g++ {
				h := hash64(s, 3, uint64(t), uint64(u), uint64(g))
				n := nameFrom(h, g)
				names = append(names, n)
				in.segs = append(in.segs, treeSeg{path: dir + ">" + n, off: int(h>>8) % treeSegWords, val: h >> 1})
			}
			addDir(dir, names)
		}
	}
	for i := 0; i < ops; i++ {
		h := hash64(s, 4, uint64(i))
		op := treeOp{reader: int(h>>4) % treeReaders}
		switch pick := h % 10; {
		case pick < 7:
			op.kind, op.target = treeRead, int(h>>8)%len(in.segs)
		case pick == 7:
			op.kind, op.target = treeList, int(h>>8)%len(in.dirs)
		case pick == 8:
			v := hash64(s, 5, uint64(i))
			op.kind, op.name, op.off, op.val = treeCreate, nameFrom(v, i), int(v>>8)%treeSegWords, v>>1
		default:
			op.kind, op.target = treeRevoke, int(h>>8)%len(in.segs)
		}
		in.ops = append(in.ops, op)
	}
	return in, nil
}

func readerName(r int) string { return "Reader" + itoa(r) }

func readerPattern(r int) string { return readerName(r) + "." + treeProject + ".*" }

func scratchDir(r int) string { return ">scratch>r" + itoa(r) }

type treeReader struct {
	sess *multics.Session
	w    *worker
}

type treeSys struct {
	in      *treeInputs
	tr      *tracer
	sys     *multics.System
	clk     *machine.Clock
	owner   *multics.Session
	readers []*treeReader
}

func (in *treeInputs) boot(tr *tracer) (system, error) {
	mc := mem.DefaultConfig()
	// Core holds every page the workload can touch, so page control
	// never evicts after set-up.
	mc.CoreFrames = 8192
	mc.BulkBlocks = 1024
	sys, err := multics.NewWithConfig(core.Config{Stage: multics.StageRestructured, Mem: &mc})
	if err != nil {
		return nil, err
	}
	s := &treeSys{in: in, tr: tr, sys: sys, clk: sys.Kernel.Services().Clock}
	if err := s.build(); err != nil {
		sys.Shutdown()
		return nil, err
	}
	return s, nil
}

// build creates the tree as its owner, logs the readers in under the
// scheduler, and warms every reader's caches with one pass over the tree.
func (s *treeSys) build() error {
	sys := s.sys
	if err := sys.AddUser(treeOwner, treeProject, "owner pw", multics.Unclassified); err != nil {
		return err
	}
	owner, err := sys.Login(treeOwner, treeProject, "owner pw", multics.Unclassified)
	if err != nil {
		return err
	}
	s.owner = owner
	everyone := "*." + treeProject + ".*"
	for _, d := range s.in.dirs {
		if err := owner.MakeDir(d); err != nil {
			return err
		}
		if err := owner.SetACL(d, everyone, "s"); err != nil {
			return err
		}
	}
	for _, sg := range s.in.segs {
		if err := owner.CreateSegment(sg.path, treeSegWords); err != nil {
			return err
		}
		if err := owner.SetACL(sg.path, everyone, "r"); err != nil {
			return err
		}
		seg, err := owner.Open(sg.path, "")
		if err != nil {
			return err
		}
		if err := seg.WriteWord(sg.off, sg.val); err != nil {
			return err
		}
		if err := seg.Close(); err != nil {
			return err
		}
	}
	if err := owner.MakeDir(">scratch"); err != nil {
		return err
	}
	if err := owner.SetACL(">scratch", everyone, "s"); err != nil {
		return err
	}
	sch := sys.Kernel.Services().Scheduler
	for r := 0; r < treeReaders; r++ {
		if err := owner.MakeDir(scratchDir(r)); err != nil {
			return err
		}
		if err := owner.SetACL(scratchDir(r), readerPattern(r), "sma"); err != nil {
			return err
		}
		pw := readerName(r) + " pw"
		if err := sys.AddUser(readerName(r), treeProject, pw, multics.Unclassified); err != nil {
			return err
		}
		sess, err := sys.Login(readerName(r), treeProject, pw, multics.Unclassified)
		if err != nil {
			return err
		}
		s.readers = append(s.readers, &treeReader{sess: sess, w: startWorker(sess.Proc, sch)})
	}
	warm := &outcome{}
	for r := range s.readers {
		for d := range s.in.dirs {
			if err := s.do(warm, treeOp{kind: treeList, reader: r, target: d}); err != nil {
				return err
			}
		}
		for g := range s.in.segs {
			if err := s.do(warm, treeOp{kind: treeRead, reader: r, target: g}); err != nil {
				return err
			}
		}
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.firstErrs[0])
	}
	return nil
}

func (s *treeSys) run(o *outcome) error {
	for i, op := range s.in.ops {
		if err := s.do(o, op); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// do performs one op and checks its outcome against the oracle.
func (s *treeSys) do(o *outcome, op treeOp) error {
	r := s.readers[op.reader]
	o.attempted++
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	vc0 := s.clk.Now()
	var err error
	switch op.kind {
	case treeRead:
		sg := s.in.segs[op.target]
		err = r.w.call(s.tr, func() { s.readSeg(o, r.sess, sg.path, sg.off, sg.val) })
	case treeList:
		err = r.w.call(s.tr, func() { s.list(o, r.sess, op.target) })
	case treeCreate:
		err = r.w.call(s.tr, func() { s.createWriteDelete(o, r.sess, op) })
	case treeRevoke:
		err = s.revoke(o, op)
	}
	if err != nil {
		return err
	}
	o.vc = append(o.vc, s.clk.Now()-vc0)
	if s.tr != nil {
		d := int64(time.Since(t0))
		o.host = append(o.host, d)
		o.opHost[op.kind] = append(o.opHost[op.kind], d)
	}
	return nil
}

func (s *treeSys) open(sess *multics.Session, path string) (*multics.Segment, error) {
	sp := s.tr.begin(s.clk)
	seg, err := sess.Open(path, "")
	s.tr.end(kOpen, s.clk, sp)
	return seg, err
}

func (s *treeSys) closeSeg(o *outcome, seg *multics.Segment) {
	sp := s.tr.begin(s.clk)
	err := seg.Close()
	s.tr.end(kCloseSeg, s.clk, sp)
	if err != nil {
		o.fail("close: %v", err)
	}
}

// readSeg opens path, reads the word at off, which must hold want, and
// closes it.
func (s *treeSys) readSeg(o *outcome, sess *multics.Session, path string, off int, want uint64) {
	seg, err := s.open(sess, path)
	if err != nil {
		o.fail("open %s: %v", path, err)
		return
	}
	sp := s.tr.begin(s.clk)
	v, err := seg.ReadWord(off)
	s.tr.end(kRead, s.clk, sp)
	switch {
	case err != nil:
		o.fail("read %s: %v", path, err)
	case v != want:
		o.fail("read %s word %d: %d, want %d", path, off, v, want)
	}
	o.digest.fold(v)
	s.closeSeg(o, seg)
}

func (s *treeSys) list(o *outcome, sess *multics.Session, d int) {
	sp := s.tr.begin(s.clk)
	names, err := sess.List(s.in.dirs[d])
	s.tr.end(kList, s.clk, sp)
	if err != nil {
		o.fail("list %s: %v", s.in.dirs[d], err)
		return
	}
	got := strings.Join(names, "\n")
	if got != s.in.listing[d] {
		o.fail("list %s: %d names, not the %d created", s.in.dirs[d], len(names), strings.Count(s.in.listing[d], "\n")+1)
	}
	o.digest.foldString(got)
}

// createWriteDelete creates a segment in the reader's scratch directory,
// writes a word, reads the last value written back, and deletes the
// segment through the hcs_$delete_entry gate.
func (s *treeSys) createWriteDelete(o *outcome, sess *multics.Session, op treeOp) {
	dir := scratchDir(op.reader)
	path := dir + ">" + op.name
	sp := s.tr.begin(s.clk)
	err := sess.CreateSegment(path, treeSegWords)
	s.tr.end(kCreate, s.clk, sp)
	if err != nil {
		o.fail("create %s: %v", path, err)
		return
	}
	seg, err := s.open(sess, path)
	if err != nil {
		o.fail("open %s: %v", path, err)
		return
	}
	sp = s.tr.begin(s.clk)
	err = seg.WriteWord(op.off, op.val)
	s.tr.end(kWrite, s.clk, sp)
	if err != nil {
		o.fail("write %s: %v", path, err)
	}
	sp = s.tr.begin(s.clk)
	v, err := seg.ReadWord(op.off)
	s.tr.end(kRead, s.clk, sp)
	if err != nil || v != op.val {
		o.fail("read back %s: %d (%v), want %d", path, v, err, op.val)
	}
	o.digest.fold(v)
	s.closeSeg(o, seg)

	dirSeg, err := sess.Env.InitiateDir(dir)
	if err != nil {
		o.fail("initiate %s: %v", dir, err)
		return
	}
	nOff, nLen, err := sess.Proc.GateString(op.name)
	if err != nil {
		o.fail("delete %s: %v", path, err)
		return
	}
	sp = s.tr.begin(s.clk)
	_, err = sess.Proc.CallGate("hcs_$delete_entry", uint64(dirSeg), nOff, nLen)
	s.tr.end(kDelete, s.clk, sp)
	if err != nil {
		o.fail("delete %s: %v", path, err)
	}
}

// revoke withdraws the reader's access to a segment, requires the
// reader's next open to be denied, then grants the access back.
func (s *treeSys) revoke(o *outcome, op treeOp) error {
	path := s.in.segs[op.target].path
	if err := s.setACL(path, readerPattern(op.reader), "null"); err != nil {
		return err
	}
	r := s.readers[op.reader]
	err := r.w.call(s.tr, func() {
		seg, err := s.open(r.sess, path)
		switch {
		case err == nil:
			o.fail("open %s after revoke: access served", path)
			s.closeSeg(o, seg)
		case !denied(err):
			o.fail("open %s after revoke: %v, want access denied", path, err)
		}
		o.digest.fold(uint64(op.target), uint64(gate.Classify(err)))
	})
	if err != nil {
		return err
	}
	return s.setACL(path, readerPattern(op.reader), "r")
}

func (s *treeSys) setACL(path, pattern, mode string) error {
	sp := s.tr.begin(s.clk)
	err := s.owner.SetACL(path, pattern, mode)
	s.tr.end(kSetACL, s.clk, sp)
	if err != nil {
		return fmt.Errorf("set ACL %s %s %s: %w", path, pattern, mode, err)
	}
	return nil
}

// denied reports whether err is the reference monitor refusing access.
func denied(err error) bool {
	var de *acl.DeniedError
	return errors.As(err, &de) || gate.Classify(err) == trace.ClassAccessDenied
}

func (s *treeSys) vclock() int64 { return s.clk.Now() }

func (s *treeSys) counters() map[string]int64 { return kernelCounters(s.sys.Kernel) }

func (s *treeSys) close() { s.sys.Shutdown() }
