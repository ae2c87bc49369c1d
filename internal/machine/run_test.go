package machine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// refLoadString is LoadString written as the per-word loop it replaces:
// one checked load per character.
func refLoadString(p *Processor, seg SegNo, off, n int) (string, error) {
	buf := make([]byte, n)
	for i := range buf {
		w, err := p.Load(seg, off+i)
		if err != nil {
			return "", err
		}
		if w > 0xff {
			return "", &WideWordError{Seg: seg, Offset: off + i, Word: w}
		}
		buf[i] = byte(w)
	}
	return string(buf), nil
}

// refStoreString is StoreString as one checked store per character.
func refStoreString(p *Processor, seg SegNo, off int, s string) (int, error) {
	for i := 0; i < len(s); i++ {
		if err := p.Store(seg, off+i, uint64(s[i])); err != nil {
			return i, err
		}
	}
	return len(s), nil
}

// plainBacking is a resident backing that is not a CoreBacking, so a run
// over it takes the full check on every word.
type plainBacking struct{ CoreBacking }

// runTwin is one processor of a pair that runs the same references, one
// through the runs and one through the per-word loops.
type runTwin struct {
	p    *Processor
	clk  *Clock
	reg  *metrics.Registry
	back Backing
}

const runSeg = SegNo(5)

func newRunTwin(cost CostModel, ring Ring, assoc, plain bool, words []uint64) runTwin {
	ds, clk, reg := NewDescriptorSegment(64), NewClock(), metrics.New()
	p := NewProcessor(ds, clk, cost, ring, reg)
	p.SetAssocEnabled(assoc)
	core := NewCoreBacking(len(words))
	copy(core.Words(), words)
	var b Backing = core
	if plain {
		b = &plainBacking{*core}
	}
	if err := ds.Set(runSeg, SDW{Backing: b, Mode: ModeRead | ModeWrite, Brackets: UserBrackets(UserRing)}); err != nil {
		panic(err)
	}
	return runTwin{p: p, clk: clk, reg: reg, back: b}
}

// contents reads back every word of the twin's segment.
func (tw runTwin) contents() []uint64 {
	out := make([]uint64, tw.back.Length())
	for i := range out {
		out[i], _ = tw.back.ReadWord(i)
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestStringRunsMatchPerWordReferences runs each string run and its
// per-word reference on twin processors and requires the same result,
// error, segment contents, clock, Stats and machine.* counters. Each
// reference runs twice, so the second run starts on a warm associative
// memory.
func TestStringRunsMatchPerWordReferences(t *testing.T) {
	text := func(s string, n int) []uint64 {
		w := make([]uint64, n)
		for i := range s {
			w[i] = uint64(s[i])
		}
		return w
	}
	wide := text("abcdefgh", 16)
	wide[5] = 0x1ff
	type op struct {
		store bool
		off   int
		n     int    // loads
		s     string // stores
	}
	cases := []struct {
		name  string
		ring  Ring
		assoc bool
		plain bool
		words []uint64
		op    op
	}{
		{"load inside the bound", KernelRing, true, false, text("gate argument", 16), op{off: 2, n: 9}},
		{"load of one word", UserRing, true, false, text("x", 16), op{n: 1}},
		{"load of no words", UserRing, true, false, text("x", 16), op{off: 3}},
		{"load to the last word", UserRing, true, false, text("0123456789abcdef", 16), op{off: 4, n: 12}},
		{"load across the bound", UserRing, true, false, text("0123456789abcdef", 16), op{off: 10, n: 10}},
		{"load starting past the bound", UserRing, true, false, text("x", 16), op{off: 16, n: 3}},
		{"load at a negative offset", UserRing, true, false, text("x", 16), op{off: -1, n: 3}},
		{"wide word in a kernel read", KernelRing, true, false, wide, op{off: 1, n: 8}},
		{"wide first word", KernelRing, true, false, wide, op{off: 5, n: 2}},
		{"load with the associative memory off", UserRing, false, false, text("full walk", 16), op{n: 9}},
		{"load of an unwritten segment", UserRing, true, false, make([]uint64, 16), op{n: 16}},
		{"load over a backing that is not a CoreBacking", UserRing, true, true, text("not core", 16), op{n: 8}},
		{"store inside the bound", UserRing, true, false, make([]uint64, 16), op{store: true, off: 3, s: "results"}},
		{"store to the last word", KernelRing, true, false, make([]uint64, 16), op{store: true, off: 6, s: "0123456789"}},
		{"store across the bound", UserRing, true, false, make([]uint64, 16), op{store: true, off: 12, s: "overflow"}},
		{"store of nothing", UserRing, true, false, make([]uint64, 16), op{store: true, off: 40}},
		{"store with the associative memory off", KernelRing, false, false, make([]uint64, 16), op{store: true, s: "walked"}},
		{"store over a backing that is not a CoreBacking", UserRing, true, true, make([]uint64, 16), op{store: true, off: 1, s: "plain"}},
	}
	for _, cost := range []CostModel{Model645(), Model6180()} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s", strings.Fields(cost.Name)[1], c.name), func(t *testing.T) {
				run := newRunTwin(cost, c.ring, c.assoc, c.plain, c.words)
				ref := newRunTwin(cost, c.ring, c.assoc, c.plain, c.words)
				for pass := 0; pass < 2; pass++ {
					var got, want string
					if c.op.store {
						n, err := run.p.StoreString(runSeg, c.op.off, c.op.s)
						got = fmt.Sprint(n, " ", errText(err))
						n, err = refStoreString(ref.p, runSeg, c.op.off, c.op.s)
						want = fmt.Sprint(n, " ", errText(err))
					} else {
						s, err := run.p.LoadString(runSeg, c.op.off, c.op.n)
						got = fmt.Sprintf("%q %s", s, errText(err))
						s, err = refLoadString(ref.p, runSeg, c.op.off, c.op.n)
						want = fmt.Sprintf("%q %s", s, errText(err))
					}
					if got != want {
						t.Errorf("pass %d: run returned %s, per-word loop %s", pass, got, want)
					}
				}
				if !reflect.DeepEqual(run.contents(), ref.contents()) {
					t.Errorf("segment after the run %v, after the loop %v", run.contents(), ref.contents())
				}
				if run.clk.Now() != ref.clk.Now() {
					t.Errorf("run charged %d vcycles, per-word loop %d", run.clk.Now(), ref.clk.Now())
				}
				if !reflect.DeepEqual(run.p.Stats(), ref.p.Stats()) {
					t.Errorf("run stats %+v, per-word loop %+v", run.p.Stats(), ref.p.Stats())
				}
				for _, name := range []string{"machine.assoc_hits", "machine.assoc_misses", "machine.assoc_invalidations", "machine.faults"} {
					if g, w := run.reg.Counter(name).Value(), ref.reg.Counter(name).Value(); g != w {
						t.Errorf("%s: run %d, per-word loop %d", name, g, w)
					}
				}
			})
		}
	}
}

// TestLoadStringAllocatesOnlyTheString pins the load run's allocation:
// after the first run has grown the processor's buffer, a run allocates
// the string it returns and nothing else.
func TestLoadStringAllocatesOnlyTheString(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	mustSet(t, ds, runSeg, SDW{Backing: NewCoreBacking(64), Mode: ModeRead | ModeWrite, Brackets: UserBrackets(UserRing)})
	if _, err := p.StoreString(runSeg, 0, strings.Repeat("name", 10)); err != nil {
		t.Fatal(err)
	}
	if s, err := p.LoadString(runSeg, 0, 40); err != nil || len(s) != 40 {
		t.Fatalf("LoadString = %q, %v", s, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = p.LoadString(runSeg, 0, 40) }); n != 1 {
		t.Errorf("LoadString allocates %.0f times, want 1 (the string)", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = p.StoreString(runSeg, 0, "stored") }); n != 0 {
		t.Errorf("StoreString allocates %.0f times, want 0", n)
	}
}

// TestCallCopiesArguments checks that a body sees the frame's copy of the
// caller's argument list: the same words at any length, and writing to
// them leaves the caller's slice alone.
func TestCallCopiesArguments(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	var seen []uint64
	mustSet(t, ds, 1, SDW{Mode: ModeExecute, Brackets: UserBrackets(UserRing), Proc: &Procedure{Name: "scribble",
		Entries: []EntryFunc{func(ctx *ExecContext, args []uint64) ([]uint64, error) {
			seen = append(seen[:0], args...)
			for i := range args {
				args[i] = 0
			}
			return ctx.Return(uint64(len(args))), nil
		}}}})
	for _, n := range []int{3, 40, 0, 5} {
		args := make([]uint64, n)
		for i := range args {
			args[i] = uint64(100 + i)
		}
		want := append([]uint64(nil), args...)
		out, err := p.Call(1, 0, args)
		if err != nil || len(out) != 1 || out[0] != uint64(n) {
			t.Fatalf("call with %d words = %v, %v", n, out, err)
		}
		if !slices.Equal(args, want) {
			t.Errorf("the body's writes reached the caller's list: %v", args)
		}
		if !slices.Equal(seen, want) {
			t.Errorf("body saw %v, want %v", seen, want)
		}
	}
}

// TestResetFrameShowsNoResults checks that a processor reset for a new
// process keeps its call frames but shows the new process none of the
// old one's result words.
func TestResetFrameShowsNoResults(t *testing.T) {
	p, ds, clk := newTestProc(UserRing, Model6180())
	body := func(ctx *ExecContext, args []uint64) ([]uint64, error) {
		if len(args) > 0 {
			return ctx.Return(args...), nil
		}
		return ctx.Out(2), nil
	}
	sdw := SDW{Mode: ModeExecute, Brackets: UserBrackets(UserRing), Proc: &Procedure{Name: "frame", Entries: []EntryFunc{body}}}
	mustSet(t, ds, 1, sdw)
	if out, err := p.Call(1, 0, []uint64{0xdead, 0xbeef}); err != nil || out[0] != 0xdead {
		t.Fatalf("call = %v, %v", out, err)
	}
	p.Reset(clk, Model6180(), UserRing)
	mustSet(t, ds, 1, sdw)
	out, err := p.Call(1, 0, nil)
	if err != nil || !reflect.DeepEqual(out, []uint64{0, 0}) {
		t.Errorf("after Reset the frame's Out = %v, %v, want [0 0]", out, err)
	}
}

// TestLoadStringBufferGrowsWithTheRun asks for far more characters than
// the segment holds: the run faults at the bound without first sizing a
// buffer for the whole request, and a negative count reads nothing.
func TestLoadStringBufferGrowsWithTheRun(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	mustSet(t, ds, runSeg, SDW{Backing: NewCoreBacking(16), Mode: ModeRead | ModeWrite, Brackets: UserBrackets(UserRing)})
	if _, err := p.LoadString(runSeg, 0, 1<<40); !IsFaultClass(err, FaultOutOfBounds) {
		t.Errorf("a 2^40-character load = %v, want an out-of-bounds fault", err)
	}
	if cap(p.strBuf) > 1024 {
		t.Errorf("the run grew its buffer to %d bytes for a 16-word segment", cap(p.strBuf))
	}
	if s, err := p.LoadString(runSeg, 0, -1); s != "" || err != nil {
		t.Errorf("a negative count = %q, %v, want an empty string", s, err)
	}
}
