package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fs"
	"repro/internal/gate"
	"repro/internal/trace"
)

// TestGateRoundTripAllocatesNothingItDoesNotReturn pins the allocations of
// user-ring gate calls with arguments. The argument list stays in the
// caller's frame and the results come back in the call frame's arena, so
// re-initiating a known segment allocates nothing, and neither does a
// fresh initiate-terminate pair: the descriptor shares the segment's one
// backing.
func TestGateRoundTripAllocatesNothingItDoesNotReturn(t *testing.T) {
	k := newKernel(t, S6Restructured)
	h := k.Services().Hierarchy
	dir := mkdir(t, k, alice, "udd")
	uid, err := h.Create(alice, unc, dir, "data", fs.CreateOptions{Kind: fs.KindSegment, Label: unc, Length: 64})
	if err != nil {
		t.Fatal(err)
	}
	p := userProc(t, k, alice, unc)
	out, err := p.CallGate("hcs_$initiate_uid", uid)
	if err != nil {
		t.Fatal(err)
	}
	seg := out[0]
	if n := testing.AllocsPerRun(100, func() {
		if out, err := p.CallGate("hcs_$initiate_uid", uid); err != nil || out[0] != seg {
			t.Fatalf("re-initiate = %v, %v, want segment %d", out, err, seg)
		}
	}); n != 0 {
		t.Errorf("re-initiating a known segment allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		out, err := p.CallGate("hcs_$initiate_uid", uid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.CallGate("hcs_$terminate_seg", out[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("initiate then terminate allocates %.0f times, want 0", n)
	}
}

// TestLookupEntryHitAllocatesNothing pins hcs_$lookup_entry's name: the
// gate looks the entry up in the characters its load run read, so a hit
// allocates nothing, and a miss still names the entry and the directory.
func TestLookupEntryHitAllocatesNothing(t *testing.T) {
	k := newKernel(t, S6Restructured)
	dir := mkdir(t, k, alice, "udd")
	uid, err := k.Services().Hierarchy.Create(alice, unc, dir, "data", fs.CreateOptions{Kind: fs.KindSegment, Label: unc, Length: 64})
	if err != nil {
		t.Fatal(err)
	}
	p := userProc(t, k, alice, unc)
	out, err := p.CallGate("hcs_$root_dir")
	if err != nil {
		t.Fatal(err)
	}
	root := out[0]
	off, n, _ := p.GateString("udd")
	if out, err = p.CallGate("hcs_$initiate_dir", root, off, n); err != nil {
		t.Fatal(err)
	}
	udd := out[0]
	off, n, _ = p.GateString("data")
	if allocs := testing.AllocsPerRun(100, func() {
		if out, err := p.CallGate("hcs_$lookup_entry", udd, off, n); err != nil || out[0] != uid {
			t.Fatalf("lookup_entry = %v, %v, want entry %#x", out, err, uid)
		}
	}); allocs != 0 {
		t.Errorf("a lookup_entry hit allocates %.0f times, want 0", allocs)
	}
	off, n, _ = p.GateString("nope")
	_, err = p.CallGate("hcs_$lookup_entry", udd, off, n)
	if want := fmt.Sprintf("%q in %#x", "nope", dir); !errors.Is(err, fs.ErrNotFound) || !strings.Contains(err.Error(), want) {
		t.Errorf("lookup_entry of a missing name = %v, want ErrNotFound naming %s", err, want)
	}
}

// TestOversizedArgumentListStillRefused checks that the frame's argument
// copy hands an argument list longer than gate.MaxArgs to the gatekeeper,
// which refuses it as before.
func TestOversizedArgumentListStillRefused(t *testing.T) {
	k := newKernel(t, S6Restructured)
	p := userProc(t, k, alice, unc)
	args := make([]uint64, gate.MaxArgs+1)
	if _, err := p.CallGate("hcs_$get_system_info", args...); gate.Classify(err) != trace.ClassBadArgs {
		t.Errorf("%d-word argument list: %v, want a bad-args refusal", len(args), err)
	}
	if _, err := p.CallGate("hcs_$get_system_info"); err != nil {
		t.Errorf("the next call at the same depth: %v", err)
	}
}
