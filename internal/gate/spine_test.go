package gate

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want trace.Class
	}{
		{nil, trace.ClassOK},
		{BadArgs("g", errors.New("x")), trace.ClassBadArgs},
		{AccessDenied("g", errors.New("x")), trace.ClassAccessDenied},
		{Malfunction("g", errors.New("x")), trace.ClassMalfunction},
		{fmt.Errorf("wrapped: %w", Malfunction("g", errors.New("x"))), trace.ClassMalfunction},
		{&machine.Fault{Class: machine.FaultRing}, trace.ClassAccessDenied},
		{&machine.Fault{Class: machine.FaultGate}, trace.ClassAccessDenied},
		{&machine.Fault{Class: machine.FaultAccess}, trace.ClassAccessDenied},
		{&machine.Fault{Class: machine.FaultSegment}, trace.ClassFailed},
		{mem.ErrOutOfRange, trace.ClassBadArgs},
		{fmt.Errorf("%w: offset 99", mem.ErrOutOfRange), trace.ClassBadArgs},
		{mem.ErrSegmentGone, trace.ClassFailed},
		{fmt.Errorf("%w: segment 7", mem.ErrSegmentGone), trace.ClassFailed},
		{errors.New("anything else"), trace.ClassFailed},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	// Classification must never rewrite the error text.
	err := BadArgs("g", fmt.Errorf("gate g: want 2 arguments, got 1"))
	if err.Error() != "gate g: want 2 arguments, got 1" {
		t.Errorf("classified error text changed: %q", err.Error())
	}
}

// TestRejectedCounter is the accounting fix: MaxArgs rejections, declared-
// arity failures, and body-level NeedArgs failures must all land in the
// per-gate rejected counter (and in errors), while other failures must not.
func TestRejectedCounter(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(Def{Name: "strict", Category: CatMisc, CodeUnits: 1, Arity: 2, Impl: echo})
	r.MustRegister(Def{Name: "inline", Category: CatMisc, CodeUnits: 1,
		Impl: func(_ *machine.ExecContext, args []uint64) ([]uint64, error) {
			if err := NeedArgs("inline", args, 1); err != nil {
				return nil, err
			}
			return args, nil
		}})
	r.MustRegister(Def{Name: "broken", Category: CatMisc, CodeUnits: 1,
		Impl: func(_ *machine.ExecContext, _ []uint64) ([]uint64, error) {
			return nil, errors.New("internal failure")
		}})
	proc := r.BuildProcedure()

	// strict: one good call, one oversized list, one wrong arity.
	if _, err := proc.Entries[0](nil, []uint64{1, 2}); err != nil {
		t.Fatalf("good call: %v", err)
	}
	if _, err := proc.Entries[0](nil, make([]uint64, MaxArgs+1)); Classify(err) != trace.ClassBadArgs {
		t.Fatalf("oversized list classified %v (%v)", Classify(err), err)
	}
	if _, err := proc.Entries[0](nil, []uint64{1}); Classify(err) != trace.ClassBadArgs {
		t.Fatalf("wrong arity classified %v (%v)", Classify(err), err)
	}
	// inline: the body's own NeedArgs failure must count as rejected too.
	if _, err := proc.Entries[1](nil, nil); Classify(err) != trace.ClassBadArgs {
		t.Fatalf("body NeedArgs classified %v (%v)", Classify(err), err)
	}
	// broken: an ordinary body failure is an error but not a rejection.
	if _, err := proc.Entries[2](nil, nil); Classify(err) != trace.ClassFailed {
		t.Fatalf("body failure classified %v (%v)", Classify(err), err)
	}

	st := r.Stats()
	if st[0].Name != "strict" || st[0].Calls != 3 || st[0].Errors != 2 || st[0].Rejected != 2 {
		t.Errorf("strict stats = %+v, want calls 3 errors 2 rejected 2", st[0])
	}
	if st[1].Calls != 1 || st[1].Errors != 1 || st[1].Rejected != 1 {
		t.Errorf("inline stats = %+v, want calls 1 errors 1 rejected 1", st[1])
	}
	if st[2].Calls != 1 || st[2].Errors != 1 || st[2].Rejected != 0 {
		t.Errorf("broken stats = %+v, want calls 1 errors 1 rejected 0", st[2])
	}
}

func TestArgBoundaries(t *testing.T) {
	args := make([]uint64, MaxArgs)
	for i := range args {
		args[i] = uint64(i)
	}
	// Negative index and one-past-the-end both reject as bad-args.
	if _, err := Arg("g", args, -1); Classify(err) != trace.ClassBadArgs {
		t.Errorf("negative index: %v", err)
	}
	if _, err := Arg("g", args, MaxArgs); Classify(err) != trace.ClassBadArgs {
		t.Errorf("index past end: %v", err)
	}
	if v, err := Arg("g", args, MaxArgs-1); err != nil || v != uint64(MaxArgs-1) {
		t.Errorf("last valid index = %d, %v", v, err)
	}
	// Exactly MaxArgs passes the gatekeeper; MaxArgs+1 does not.
	r := NewRegistry()
	r.MustRegister(Def{Name: "wide", Category: CatMisc, CodeUnits: 1, Impl: echo})
	proc := r.BuildProcedure()
	if _, err := proc.Entries[0](nil, args); err != nil {
		t.Errorf("exactly MaxArgs rejected: %v", err)
	}
	if _, err := proc.Entries[0](nil, append(args, 99)); Classify(err) != trace.ClassBadArgs {
		t.Errorf("MaxArgs+1 not rejected: %v", err)
	}
	if err := NeedArgs("g", args, MaxArgs); err != nil {
		t.Errorf("NeedArgs at MaxArgs: %v", err)
	}
}

// TestTraceMW verifies the gatekeeper records one trace event per crossing
// with the right outcome, rejected argument lists included.
func TestTraceMW(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(Def{Name: "strict", Category: CatMisc, CodeUnits: 1, Arity: 1, Impl: echo})
	ring := trace.NewRing(64)
	r.SetTraceRing(ring)
	proc := r.BuildProcedure()

	if _, err := proc.Entries[0](nil, []uint64{42}); err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Entries[0](nil, nil); Classify(err) != trace.ClassBadArgs {
		t.Fatalf("rejection: %v", err)
	}
	snap := ring.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("ring holds %d events, want 2", len(snap))
	}
	if snap[0].Name != "strict" || snap[0].Outcome != trace.ClassOK || snap[0].Arg != 42 {
		t.Errorf("first event = %+v", snap[0])
	}
	if snap[1].Outcome != trace.ClassBadArgs || snap[1].Detail == "" {
		t.Errorf("second event = %+v", snap[1])
	}
}
