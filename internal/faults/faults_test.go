package faults

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/interrupt"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/trace"
)

func TestCompileRejectsBadRates(t *testing.T) {
	cases := []Spec{
		{MemIORate: -0.1},
		{TornWriteRate: 1.5},
		{ConnResetRate: 2},
		{CrashObjects: -1},
	}
	for i, spec := range cases {
		if _, err := Compile(spec); err == nil {
			t.Errorf("case %d: Compile(%+v) accepted an invalid spec", i, spec)
		}
	}
	if _, err := Compile(Spec{MemIORate: 1, TornWriteRate: 0}); err != nil {
		t.Errorf("rate 1 rejected: %v", err)
	}
}

func TestDecideDeterministicAndSeedSensitive(t *testing.T) {
	a := MustCompile(UniformSpec(42, 0.25, 0))
	b := MustCompile(UniformSpec(42, 0.25, 0))
	c := MustCompile(UniformSpec(43, 0.25, 0))
	same, diff := 0, 0
	for i := uint64(0); i < 4096; i++ {
		da := a.Decide(PointMemIO, i, 0)
		if db := b.Decide(PointMemIO, i, 0); da != db {
			t.Fatalf("same spec disagreed at key %d", i)
		}
		if da == c.Decide(PointMemIO, i, 0) {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds never disagreed — hash ignores the seed")
	}
	_ = same
}

func TestDecideRateConverges(t *testing.T) {
	p := MustCompile(UniformSpec(7, 0.1, 0))
	hits := 0
	const n = 1 << 16
	for i := uint64(0); i < n; i++ {
		if p.Decide(PointConnReset, i) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.08 || got > 0.12 {
		t.Errorf("empirical rate %.4f far from 0.1", got)
	}
}

func TestZeroRateNeverFires(t *testing.T) {
	p := MustCompile(Spec{Seed: 9})
	for i := uint64(0); i < 1024; i++ {
		for pt := PointMemIO; pt < numPoints; pt++ {
			if p.Decide(pt, i) {
				t.Fatalf("zero-rate plan injected at %v key %d", pt, i)
			}
		}
	}
}

func TestInjectorOccurrenceAdvances(t *testing.T) {
	// At rate 1 every opportunity fires, but the occurrence counter must
	// still advance so each call is a distinct decision.
	in := NewInjector(MustCompile(Spec{Seed: 1, MemIORate: 1}), nil, nil)
	pid := mem.PageID{SegUID: 5, Index: 3}
	for i := 0; i < 4; i++ {
		if err := in.PageIO(mem.OpMaterialize, pid); !errors.Is(err, mem.ErrIO) {
			t.Fatalf("attempt %d: err = %v, want ErrIO", i, err)
		}
	}
	if got := in.Counts().MemIO; got != 4 {
		t.Errorf("MemIO count = %d, want 4", got)
	}
	// A retry loop against rate r terminates: occurrences differ, so a
	// 50% plan cannot fail the same page forever.
	in2 := NewInjector(MustCompile(Spec{Seed: 2, MemIORate: 0.5}), nil, nil)
	fails := 0
	for ; fails < 64; fails++ {
		if in2.PageIO(mem.OpMaterialize, pid) == nil {
			break
		}
	}
	if fails == 64 {
		t.Error("retry never succeeded at rate 0.5 — occurrence not advancing")
	}
}

func TestInjectorEmitsStageInjectToSink(t *testing.T) {
	ring := trace.NewRing(64)
	clk := machine.NewClock()
	clk.Advance(123)
	in := NewInjector(MustCompile(Spec{Seed: 1, MemIORate: 1}), clk, ring)
	_ = in.PageIO(mem.OpDiskRead, mem.PageID{SegUID: 7, Index: 1})
	evs := ring.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Stage != trace.StageInject {
		t.Errorf("stage = %v, want StageInject", ev.Stage)
	}
	if ev.At != 123 {
		t.Errorf("At = %d, want the virtual cycle 123", ev.At)
	}
	if ev.Subject != 7 || ev.Name != PointMemIO.String() {
		t.Errorf("event identity wrong: %+v", ev)
	}
}

func TestTornWriteCorruptsExactlyOneWord(t *testing.T) {
	in := NewInjector(MustCompile(Spec{Seed: 3, TornWriteRate: 1}), nil, nil)
	data := make([]uint64, 16)
	for i := range data {
		data[i] = uint64(i)
	}
	in.PageOut(mem.OpBulkWrite, mem.PageID{SegUID: 1, Index: 0}, data)
	changed := 0
	for i := range data {
		if data[i] != uint64(i) {
			changed++
			if data[i] != uint64(i)^tornMask {
				t.Errorf("word %d corrupted to %#x, not XOR of tornMask", i, data[i])
			}
		}
	}
	if changed != 1 {
		t.Errorf("torn write changed %d words, want exactly 1", changed)
	}
	if got := in.Counts().TornWrites; got != 1 {
		t.Errorf("TornWrites = %d, want 1", got)
	}
}

func TestInterceptorLossDupAndRedeliver(t *testing.T) {
	clk := machine.NewClock()
	sch := sched.New(clk, nil)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	pi := interrupt.NewProcessInterceptor(sch)
	for _, src := range []string{"disk", "net"} {
		if err := pi.Register(src, func(pc *sched.ProcCtx, ev interrupt.Event) {
			pc.Consume(10)
		}); err != nil {
			t.Fatal(err)
		}
	}
	in := NewInjector(MustCompile(Spec{Seed: 11, IntLostRate: 0.3, IntDupRate: 0.3}), clk, nil)
	fi := in.WrapInterceptor(pi)
	const n = 200
	for i := 0; i < n; i++ {
		src := "disk"
		if i%2 == 1 {
			src = "net"
		}
		at := int64(10 + i*13)
		data := uint64(i)
		s := src
		sch.At(at, func() { fi.Raise(s, data) })
	}
	sch.Run(0)
	c := in.Counts()
	if c.IntLost == 0 || c.IntDup == 0 {
		t.Fatalf("expected losses and duplicates at 30%%: %+v", c)
	}
	if got := int64(fi.Pending()); got != c.IntLost {
		t.Errorf("Pending = %d, want %d stashed", got, c.IntLost)
	}
	if re := int64(fi.Redeliver()); re != c.IntLost {
		t.Errorf("Redeliver = %d, want %d", re, c.IntLost)
	}
	sch.Run(0)
	st := fi.Stats()
	if st.Handled != n+c.IntDup {
		t.Errorf("handled %d interrupts, want %d originals + %d dups", st.Handled, n, c.IntDup)
	}
	if fi.Pending() != 0 {
		t.Errorf("stash not drained: %d pending", fi.Pending())
	}
}

func TestInjectorDecisionsScheduleIndependent(t *testing.T) {
	// Two injectors fed the same per-entity sequences in different global
	// orders must land identical faults: decisions key on (entity,
	// occurrence), never on arrival order.
	mk := func() *Injector {
		return NewInjector(MustCompile(UniformSpec(99, 0.3, 0)), nil, nil)
	}
	type probe struct {
		conn uint64
		n    int
	}
	probes := []probe{{1, 5}, {2, 5}, {3, 5}}
	run := func(in *Injector, interleaved bool) string {
		out := ""
		if interleaved {
			for i := 0; i < 5; i++ {
				for _, p := range probes {
					out += fmt.Sprintf("%d:%v ", p.conn, in.ConnReset(p.conn))
				}
			}
		} else {
			byConn := map[uint64][]bool{}
			for _, p := range probes {
				for i := 0; i < p.n; i++ {
					byConn[p.conn] = append(byConn[p.conn], in.ConnReset(p.conn))
				}
			}
			for i := 0; i < 5; i++ {
				for _, p := range probes {
					out += fmt.Sprintf("%d:%v ", p.conn, byConn[p.conn][i])
				}
			}
		}
		return out
	}
	if a, b := run(mk(), true), run(mk(), false); a != b {
		t.Errorf("fault pattern depends on arrival order:\n%s\n%s", a, b)
	}
}
