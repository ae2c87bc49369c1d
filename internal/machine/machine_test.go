package machine

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func newTestProc(ring Ring, cost CostModel) (*Processor, *DescriptorSegment, *Clock) {
	ds := NewDescriptorSegment(64)
	clk := NewClock()
	return NewProcessor(ds, clk, cost, ring, nil), ds, clk
}

// newCountingProc is newTestProc with the registry the processor counts
// its machine.* events into.
func newCountingProc(ring Ring, cost CostModel) (*Processor, *DescriptorSegment, *metrics.Registry) {
	reg := metrics.New()
	ds := NewDescriptorSegment(64)
	return NewProcessor(ds, NewClock(), cost, ring, reg), ds, reg
}

// assocCounts is what the machine.assoc_* counters of a registry read.
type assocCounts struct{ hits, misses, invalidations int64 }

func readAssoc(reg *metrics.Registry) assocCounts {
	return assocCounts{
		hits:          reg.Counter("machine.assoc_hits").Value(),
		misses:        reg.Counter("machine.assoc_misses").Value(),
		invalidations: reg.Counter("machine.assoc_invalidations").Value(),
	}
}

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want AccessMode
		ok   bool
	}{
		{"r", ModeRead, true},
		{"rw", ModeRead | ModeWrite, true},
		{"re", ModeRead | ModeExecute, true},
		{"rx", ModeRead | ModeExecute, true},
		{"", 0, true},
		{"---", 0, true},
		{"rq", 0, false},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if c.ok && err != nil {
			t.Errorf("ParseMode(%q) unexpected error: %v", c.in, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseMode(%q) expected error", c.in)
		}
		if c.ok && got != c.want {
			t.Errorf("ParseMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestModeString(t *testing.T) {
	if got := (ModeRead | ModeWrite).String(); got != "rw-" {
		t.Errorf("mode string = %q, want rw-", got)
	}
	if got := AccessMode(0).String(); got != "---" {
		t.Errorf("empty mode string = %q, want ---", got)
	}
}

func TestBracketsValid(t *testing.T) {
	if !(Brackets{0, 0, 5}).Valid() {
		t.Error("gate brackets should be valid")
	}
	if (Brackets{3, 2, 5}).Valid() {
		t.Error("r1>r2 should be invalid")
	}
	if (Brackets{0, 6, 5}).Valid() {
		t.Error("r2>r3 should be invalid")
	}
	if (Brackets{-1, 0, 0}).Valid() {
		t.Error("negative ring should be invalid")
	}
}

func TestDescriptorSegmentSetAndClear(t *testing.T) {
	ds := NewDescriptorSegment(8)
	b := NewCoreBacking(4)
	if err := ds.Set(3, SDW{Backing: b, Mode: ModeRead, Brackets: UserBrackets(UserRing)}); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if !ds.SDW(3).InUse() {
		t.Error("descriptor 3 should be in use")
	}
	if ds.FirstFree(0) != 0 {
		t.Errorf("FirstFree(0) = %d, want 0", ds.FirstFree(0))
	}
	if ds.FirstFree(3) != 4 {
		t.Errorf("FirstFree(3) = %d, want 4", ds.FirstFree(3))
	}
	ds.Clear(3)
	if ds.SDW(3).InUse() {
		t.Error("descriptor 3 should be clear")
	}
	if err := ds.Set(99, SDW{}); err == nil {
		t.Error("Set out of range should fail")
	}
	if err := ds.Set(1, SDW{Backing: b, Brackets: Brackets{5, 2, 0}}); err == nil {
		t.Error("Set with invalid brackets should fail")
	}
}

func TestLoadStoreHappyPath(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	b := NewCoreBacking(16)
	mustSet(t, ds, 1, SDW{Backing: b, Mode: ModeRead | ModeWrite, Brackets: UserBrackets(UserRing)})
	if err := p.Store(1, 5, 42); err != nil {
		t.Fatalf("Store: %v", err)
	}
	got, err := p.Load(1, 5)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got != 42 {
		t.Errorf("Load = %d, want 42", got)
	}
	st := p.Stats()
	if st.Loads != 1 || st.Stores != 1 {
		t.Errorf("stats loads/stores = %d/%d, want 1/1", st.Loads, st.Stores)
	}
}

func TestAccessModeEnforced(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	b := NewCoreBacking(16)
	mustSet(t, ds, 1, SDW{Backing: b, Mode: ModeRead, Brackets: UserBrackets(UserRing)})
	if err := p.Store(1, 0, 1); !IsFaultClass(err, FaultAccess) {
		t.Errorf("store to read-only segment: got %v, want access fault", err)
	}
	mustSet(t, ds, 2, SDW{Backing: b, Mode: ModeWrite, Brackets: UserBrackets(UserRing)})
	if _, err := p.Load(2, 0); !IsFaultClass(err, FaultAccess) {
		t.Errorf("load from write-only segment: got %v, want access fault", err)
	}
}

func TestRingBracketsEnforcedOnData(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	b := NewCoreBacking(16)
	// Kernel segment: readable/writable only from ring 0.
	mustSet(t, ds, 1, SDW{Backing: b, Mode: ModeRead | ModeWrite, Brackets: KernelBrackets()})
	if _, err := p.Load(1, 0); !IsFaultClass(err, FaultRing) {
		t.Errorf("user-ring load of kernel segment: got %v, want ring fault", err)
	}
	if err := p.Store(1, 0, 7); !IsFaultClass(err, FaultRing) {
		t.Errorf("user-ring store of kernel segment: got %v, want ring fault", err)
	}
	// Write bracket tighter than read bracket: r1=0, r2=4.
	mustSet(t, ds, 2, SDW{Backing: b, Mode: ModeRead | ModeWrite, Brackets: Brackets{0, 4, 4}})
	if _, err := p.Load(2, 0); err != nil {
		t.Errorf("read within read bracket should succeed: %v", err)
	}
	if err := p.Store(2, 0, 7); !IsFaultClass(err, FaultRing) {
		t.Errorf("write outside write bracket: got %v, want ring fault", err)
	}
}

func TestOutOfBoundsAndMissingSegment(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	b := NewCoreBacking(4)
	mustSet(t, ds, 1, SDW{Backing: b, Mode: ModeRead, Brackets: UserBrackets(UserRing)})
	if _, err := p.Load(1, 4); !IsFaultClass(err, FaultOutOfBounds) {
		t.Errorf("load past end: got %v, want out-of-bounds fault", err)
	}
	if _, err := p.Load(1, -1); !IsFaultClass(err, FaultOutOfBounds) {
		t.Errorf("negative offset: got %v, want out-of-bounds fault", err)
	}
	if _, err := p.Load(9, 0); !IsFaultClass(err, FaultSegment) {
		t.Errorf("unused descriptor: got %v, want segment fault", err)
	}
	if _, err := p.Load(999, 0); !IsFaultClass(err, FaultSegment) {
		t.Errorf("out-of-range segno: got %v, want segment fault", err)
	}
}

func echoProc() *Procedure {
	return &Procedure{Name: "echo", Entries: []EntryFunc{
		func(_ *ExecContext, args []uint64) ([]uint64, error) { return args, nil },
	}}
}

// ringRecorder returns a procedure whose entry records the ring it runs in.
func ringRecorder(out *Ring) *Procedure {
	return &Procedure{Name: "recorder", Entries: []EntryFunc{
		func(ctx *ExecContext, _ []uint64) ([]uint64, error) {
			*out = ctx.Ring()
			return nil, nil
		},
	}}
}

func TestIntraRingCall(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	var ran Ring = -1
	mustSet(t, ds, 1, SDW{Proc: ringRecorder(&ran), Mode: ModeExecute, Brackets: UserBrackets(UserRing)})
	if _, err := p.Call(1, 0, nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if ran != UserRing {
		t.Errorf("callee ran in %v, want %v", ran, UserRing)
	}
	if p.Ring() != UserRing {
		t.Errorf("ring not restored: %v", p.Ring())
	}
	st := p.Stats()
	if st.Calls != 1 || st.CrossRingCalls != 0 || st.GateCalls != 0 {
		t.Errorf("stats = %+v, want 1 intra-ring call", st)
	}
}

func TestGateCallSwitchesRing(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	var ran Ring = -1
	mustSet(t, ds, 1, SDW{
		Proc: ringRecorder(&ran), Mode: ModeExecute,
		Brackets: GateBrackets(KernelRing, UserRing), Gates: 1,
	})
	if _, err := p.Call(1, 0, nil); err != nil {
		t.Fatalf("gate call: %v", err)
	}
	if ran != KernelRing {
		t.Errorf("gate callee ran in %v, want ring 0", ran)
	}
	if p.Ring() != UserRing {
		t.Errorf("caller ring not restored: %v", p.Ring())
	}
	st := p.Stats()
	if st.CrossRingCalls != 1 || st.GateCalls != 1 {
		t.Errorf("stats = %+v, want one gate crossing", st)
	}
}

func TestNonGateEntryRejected(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	proc := &Procedure{Name: "twoentry", Entries: []EntryFunc{
		func(_ *ExecContext, a []uint64) ([]uint64, error) { return a, nil },
		func(_ *ExecContext, a []uint64) ([]uint64, error) { return a, nil },
	}}
	// Only entry 0 is a gate.
	mustSet(t, ds, 1, SDW{Proc: proc, Mode: ModeExecute, Brackets: GateBrackets(KernelRing, UserRing), Gates: 1})
	if _, err := p.Call(1, 0, nil); err != nil {
		t.Fatalf("gate entry 0 should be callable: %v", err)
	}
	if _, err := p.Call(1, 1, nil); !IsFaultClass(err, FaultGate) {
		t.Errorf("non-gate entry 1: got %v, want gate fault", err)
	}
	if _, err := p.Call(1, 7, nil); !IsFaultClass(err, FaultGate) {
		t.Errorf("out-of-range entry: got %v, want gate fault", err)
	}
}

func TestCallBeyondCallBracketRejected(t *testing.T) {
	// Segment callable only from rings <= 2; caller is in ring 4.
	p, ds, _ := newTestProc(UserRing, Model6180())
	mustSet(t, ds, 1, SDW{Proc: echoProc(), Mode: ModeExecute, Brackets: Brackets{0, 0, 2}, Gates: 1})
	if _, err := p.Call(1, 0, nil); !IsFaultClass(err, FaultRing) {
		t.Errorf("call from outside call bracket: got %v, want ring fault", err)
	}
}

func TestOutwardCall(t *testing.T) {
	// Kernel code calling a user-ring segment executes it in the user ring.
	p, ds, _ := newTestProc(KernelRing, Model6180())
	var ran Ring = -1
	mustSet(t, ds, 1, SDW{Proc: ringRecorder(&ran), Mode: ModeExecute, Brackets: UserBrackets(UserRing)})
	if _, err := p.Call(1, 0, nil); err != nil {
		t.Fatalf("outward call: %v", err)
	}
	if ran != UserRing {
		t.Errorf("outward callee ran in %v, want %v", ran, UserRing)
	}
	if p.Ring() != KernelRing {
		t.Errorf("caller ring not restored: %v", p.Ring())
	}
}

func TestNonExecutableSegmentRejected(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	mustSet(t, ds, 1, SDW{Backing: NewCoreBacking(4), Mode: ModeRead, Brackets: UserBrackets(UserRing)})
	if _, err := p.Call(1, 0, nil); !IsFaultClass(err, FaultAccess) {
		t.Errorf("call of data segment: got %v, want access fault", err)
	}
	mustSet(t, ds, 2, SDW{Proc: echoProc(), Mode: ModeRead, Brackets: UserBrackets(UserRing)})
	if _, err := p.Call(2, 0, nil); !IsFaultClass(err, FaultAccess) {
		t.Errorf("call without execute mode: got %v, want access fault", err)
	}
}

func TestCallStackOverflowFaults(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	var rec *Procedure
	rec = &Procedure{Name: "loop", Entries: []EntryFunc{
		func(ctx *ExecContext, _ []uint64) ([]uint64, error) {
			return ctx.Call(1, 0, nil)
		},
	}}
	mustSet(t, ds, 1, SDW{Proc: rec, Mode: ModeExecute, Brackets: UserBrackets(UserRing)})
	_, err := p.Call(1, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "call stack overflow") {
		t.Errorf("unbounded recursion: got %v, want stack overflow fault", err)
	}
}

func TestCrossRingCostModels(t *testing.T) {
	run := func(cost CostModel) (intra, cross int64) {
		p, ds, clk := newTestProc(UserRing, cost)
		mustSet(t, ds, 1, SDW{Proc: echoProc(), Mode: ModeExecute, Brackets: UserBrackets(UserRing)})
		mustSet(t, ds, 2, SDW{Proc: echoProc(), Mode: ModeExecute, Brackets: GateBrackets(KernelRing, UserRing), Gates: 1})
		start := clk.Now()
		if _, err := p.Call(1, 0, nil); err != nil {
			t.Fatalf("intra call: %v", err)
		}
		intra = clk.Now() - start
		start = clk.Now()
		if _, err := p.Call(2, 0, nil); err != nil {
			t.Fatalf("cross call: %v", err)
		}
		cross = clk.Now() - start
		return intra, cross
	}
	i645, c645 := run(Model645())
	i6180, c6180 := run(Model6180())
	if c645 < 10*i645 {
		t.Errorf("645: cross-ring call (%d) should dwarf intra-ring call (%d)", c645, i645)
	}
	if c6180 > 2*i6180 {
		t.Errorf("6180: cross-ring call (%d) should be comparable to intra-ring call (%d)", c6180, i6180)
	}
}

func TestLinkageFaultAndSnap(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	mustSet(t, ds, 1, SDW{Proc: echoProc(), Mode: ModeExecute, Brackets: UserBrackets(UserRing)})
	resolved := 0
	p.Linker = linkerFunc(func(_ *ExecContext, ref LinkRef) (LinkTarget, error) {
		resolved++
		if ref.SegName != "echo" {
			t.Errorf("unexpected ref %v", ref)
		}
		return LinkTarget{Seg: 1, Entry: 0}, nil
	})
	ref := LinkRef{SegName: "echo", EntryName: "main"}
	for i := 0; i < 3; i++ {
		out, err := p.CallSym(5, ref, []uint64{9})
		if err != nil {
			t.Fatalf("CallSym #%d: %v", i, err)
		}
		if len(out) != 1 || out[0] != 9 {
			t.Errorf("CallSym result = %v", out)
		}
	}
	if resolved != 1 {
		t.Errorf("linker invoked %d times, want 1 (link should be snapped)", resolved)
	}
	if p.SnappedLinkCount(5) != 1 {
		t.Errorf("snapped link count = %d, want 1", p.SnappedLinkCount(5))
	}
	st := p.Stats()
	if st.Faults[FaultLinkage] != 1 {
		t.Errorf("linkage faults = %d, want 1", st.Faults[FaultLinkage])
	}
}

func TestLinkageFaultWithoutLinker(t *testing.T) {
	p, _, _ := newTestProc(UserRing, Model6180())
	if _, err := p.CallSym(1, LinkRef{SegName: "x", EntryName: "y"}, nil); !IsFaultClass(err, FaultLinkage) {
		t.Errorf("CallSym without linker: got %v, want linkage fault", err)
	}
}

type linkerFunc func(ctx *ExecContext, ref LinkRef) (LinkTarget, error)

func (f linkerFunc) HandleLinkageFault(ctx *ExecContext, ref LinkRef) (LinkTarget, error) {
	return f(ctx, ref)
}

type faultingBacking struct {
	inner    *CoreBacking
	resident map[int]bool
	pageSize int
	tag      uint64
}

func (b *faultingBacking) page(off int) int             { return off / b.pageSize }
func (b *faultingBacking) PageOf(off int) (uint64, int) { return b.tag, b.page(off) }
func (b *faultingBacking) ReadWord(off int) (uint64, error) {
	if !b.resident[b.page(off)] {
		return 0, ErrPageAbsent
	}
	return b.inner.ReadWord(off)
}
func (b *faultingBacking) WriteWord(off int, val uint64) error {
	if !b.resident[b.page(off)] {
		return ErrPageAbsent
	}
	return b.inner.WriteWord(off, val)
}
func (b *faultingBacking) Length() int { return b.inner.Length() }

// TestPageFaultRetry stores into a non-resident page: the processor takes
// the page fault, the pager makes the page resident, and the store is
// retried. The store's cost is pinned exactly, because no report in the
// experiments' golden file depends on the processor's fault-delivery
// cost: the descriptor walk, the faulting store, FaultOverhead, and the
// retried store through the associative memory.
func TestPageFaultRetry(t *testing.T) {
	for _, tc := range []struct {
		cost CostModel
		want int64
	}{
		// descriptor walk + store + FaultOverhead + assoc search + store
		{Model6180(), 56}, // 4 + 1 + 50 + 0 + 1
		{Model645(), 59},  // 6 + 1 + 50 + 1 + 1
	} {
		p, ds, clk := newTestProc(UserRing, tc.cost)
		fb := &faultingBacking{inner: NewCoreBacking(16), resident: map[int]bool{}, pageSize: 4, tag: 0xabc}
		mustSet(t, ds, 1, SDW{Backing: fb, Mode: ModeRead | ModeWrite, Brackets: UserBrackets(UserRing)})
		handled := 0
		p.Pager = PageFaultHandlerFunc(func(pf *PageFault) error {
			handled++
			fb.resident[pf.Page] = true
			return nil
		})
		before := clk.Now()
		if err := p.Store(1, 6, 11); err != nil {
			t.Fatalf("%s: store with pager: %v", tc.cost.Name, err)
		}
		if got := clk.Now() - before; got != tc.want {
			t.Errorf("%s: faulting store cost %d vcycles, want %d", tc.cost.Name, got, tc.want)
		}
		if handled != 1 {
			t.Errorf("%s: pager invoked %d times, want 1", tc.cost.Name, handled)
		}
		got, err := p.Load(1, 6)
		if err != nil || got != 11 {
			t.Errorf("%s: load after page-in = %d, %v; want 11, nil", tc.cost.Name, got, err)
		}
	}
}

func TestPageFaultWithoutPagerAborts(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	fb := &faultingBacking{inner: NewCoreBacking(8), resident: map[int]bool{}, pageSize: 4, tag: 1}
	mustSet(t, ds, 1, SDW{Backing: fb, Mode: ModeRead, Brackets: UserBrackets(UserRing)})
	_, err := p.Load(1, 5)
	if !IsFaultClass(err, FaultPage) {
		t.Errorf("page fault without pager: got %v, want page fault", err)
	}
	if f, _ := AsFault(err); f == nil || f.Detail != "page fault: page 1 of segment 0x1 absent" {
		t.Errorf("unhandled page fault = %v, want its detail to name page 1 of segment 0x1", err)
	}
}

// TestHandledPageFaultAllocatesNothing pins the fault path's storage: the
// backing reports an absent page with ErrPageAbsent, and the processor
// names it to the pager in a PageFault of its own, so taking, handling and
// retrying a page fault allocates nothing.
func TestHandledPageFaultAllocatesNothing(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	fb := &faultingBacking{inner: NewCoreBacking(8), resident: map[int]bool{}, pageSize: 4, tag: 0xabc}
	mustSet(t, ds, 1, SDW{Backing: fb, Mode: ModeRead, Brackets: UserBrackets(UserRing)})
	var got PageFault
	p.Pager = PageFaultHandlerFunc(func(pf *PageFault) error {
		got = *pf
		fb.resident[pf.Page] = true
		return nil
	})
	faults := p.Stats().Faults[FaultPage]
	allocs := testing.AllocsPerRun(100, func() {
		fb.resident[1] = false
		if _, err := p.Load(1, 6); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a handled page fault allocates %.1f times, want 0", allocs)
	}
	if got != (PageFault{Page: 1, SegTag: 0xabc}) {
		t.Errorf("pager was handed %+v, want page 1 of segment 0xabc", got)
	}
	if n := p.Stats().Faults[FaultPage] - faults; n != 101 {
		t.Errorf("%d page faults charged, want 101 (one per load)", n)
	}
}

func TestClock(t *testing.T) {
	c := NewClock()
	c.Advance(10)
	c.AdvanceTo(5) // no-op: in the past
	if c.Now() != 10 {
		t.Errorf("Now = %d, want 10", c.Now())
	}
	c.AdvanceTo(20)
	if c.Now() != 20 {
		t.Errorf("Now = %d, want 20", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Advance should panic")
		}
	}()
	c.Advance(-1)
}

// Property: for any brackets and ring, a write permission implies a read
// permission would also be granted ring-wise (w bracket ⊆ r bracket), and no
// data access is ever granted to a ring above R2.
func TestQuickRingBracketMonotonicity(t *testing.T) {
	f := func(r1u, r2u, r3u, ringU uint8) bool {
		r1, r2, r3 := Ring(r1u%8), Ring(r2u%8), Ring(r3u%8)
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		if r2 > r3 {
			r2, r3 = r3, r2
		}
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		ring := Ring(ringU % 8)
		ds := NewDescriptorSegment(4)
		clk := NewClock()
		p := NewProcessor(ds, clk, Model6180(), ring, nil)
		b := NewCoreBacking(2)
		if err := ds.Set(1, SDW{Backing: b, Mode: ModeRead | ModeWrite, Brackets: Brackets{r1, r2, r3}}); err != nil {
			return false
		}
		werr := p.Store(1, 0, 1)
		_, rerr := p.Load(1, 0)
		if werr == nil && rerr != nil {
			return false // write allowed but read denied: brackets violated
		}
		if rerr == nil && ring > r2 {
			return false // read above read bracket
		}
		if werr == nil && ring > r1 {
			return false // write above write bracket
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustSet(t *testing.T, ds *DescriptorSegment, seg SegNo, sdw SDW) {
	t.Helper()
	if err := ds.Set(seg, sdw); err != nil {
		t.Fatalf("Set(%d): %v", seg, err)
	}
}
