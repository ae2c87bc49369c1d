package policy

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

func testStore(t *testing.T, frames int) *mem.Store {
	t.Helper()
	cfg := mem.DefaultConfig()
	cfg.PageWords = 4
	cfg.CoreFrames = frames
	cfg.BulkBlocks = 32
	s, err := mem.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func populate(t *testing.T, s *mem.Store, uid uint64, pages int) []mem.FrameID {
	t.Helper()
	if _, err := s.CreateSegment(uid, pages*4); err != nil {
		t.Fatal(err)
	}
	var frames []mem.FrameID
	for i := 0; i < pages; i++ {
		f, _, err := s.PageIn(mem.PageID{SegUID: uid, Index: i})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	return frames
}

func newDomain(t *testing.T, s *mem.Store, proc *machine.Procedure) *Domain {
	t.Helper()
	d, err := NewDomain(machine.NewClock(), machine.Model6180(), NewMechanism(s), proc)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMechanismGates(t *testing.T) {
	s := testStore(t, 8)
	frames := populate(t, s, 1, 3)
	d := newDomain(t, s, ClockPolicyCode())

	out, err := d.Proc.Call(GateSeg, EntryFrameCount, nil)
	if err != nil || out[0] != 8 {
		t.Errorf("frame_count = %v, %v", out, err)
	}
	out, err = d.Proc.Call(GateSeg, EntryUsage, []uint64{uint64(frames[0])})
	if err != nil {
		t.Fatal(err)
	}
	if out[0]&UsageFree != 0 || out[0]&UsageUsed == 0 {
		t.Errorf("usage bits = %#x", out[0])
	}
	// Reset then move.
	if _, err := d.Proc.Call(GateSeg, EntryResetUsage, []uint64{uint64(frames[0])}); err != nil {
		t.Fatal(err)
	}
	out, err = d.Proc.Call(GateSeg, EntryMoveToBulk, []uint64{uint64(frames[0])})
	if err != nil {
		t.Fatalf("move: %v", err)
	}
	if out[0] != uint64(s.Config().BulkWrite) {
		t.Errorf("move latency = %d", out[0])
	}
	if d.Mechanism().Moves != 1 {
		t.Errorf("moves = %d", d.Mechanism().Moves)
	}
}

func TestMechanismValidatesArguments(t *testing.T) {
	s := testStore(t, 4)
	populate(t, s, 1, 2)
	d := newDomain(t, s, ClockPolicyCode())
	if _, err := d.Proc.Call(GateSeg, EntryUsage, nil); err == nil {
		t.Error("missing argument should fail")
	}
	if _, err := d.Proc.Call(GateSeg, EntryUsage, []uint64{999}); err == nil {
		t.Error("out-of-range frame should fail")
	}
	// With 2 of 4 frames occupied, find one that is still free.
	freeFrame := uint64(999)
	for _, fr := range s.Frames() {
		if fr.Free {
			freeFrame = uint64(fr.ID)
			break
		}
	}
	if freeFrame == 999 {
		t.Fatal("no free frame left")
	}
	if _, err := d.Proc.Call(GateSeg, EntryMoveToBulk, []uint64{freeFrame}); err == nil {
		t.Error("moving a free frame should fail")
	}
	if d.Mechanism().DeniedInvalid == 0 {
		t.Error("denials not counted")
	}
}

func TestMechanismRefusesWiredFrames(t *testing.T) {
	s := testStore(t, 4)
	frames := populate(t, s, 1, 2)
	if err := s.Wire(frames[0], true); err != nil {
		t.Fatal(err)
	}
	d := newDomain(t, s, ClockPolicyCode())
	if _, err := d.Proc.Call(GateSeg, EntryMoveToBulk, []uint64{uint64(frames[0])}); err == nil || !strings.Contains(err.Error(), "wired") {
		t.Errorf("wired eviction = %v, want refusal", err)
	}
	if d.Mechanism().DeniedWired != 1 {
		t.Errorf("DeniedWired = %d", d.Mechanism().DeniedWired)
	}
}

func TestMechanismNeverRevealsPageIdentity(t *testing.T) {
	// The usage gate returns only the four usage bits: for any frame the
	// result must fit in the defined bit mask.
	s := testStore(t, 8)
	populate(t, s, 0xabcdef, 4)
	d := newDomain(t, s, ClockPolicyCode())
	allBits := UsageFree | UsageUsed | UsageModified | UsageWired
	for f := uint64(0); f < 8; f++ {
		out, err := d.Proc.Call(GateSeg, EntryUsage, []uint64{f})
		if err != nil {
			t.Fatal(err)
		}
		if out[0]&^allBits != 0 {
			t.Errorf("usage(%d) leaked extra bits: %#x", f, out[0])
		}
	}
}

func TestClockPolicyChoosesColdFrame(t *testing.T) {
	s := testStore(t, 4)
	frames := populate(t, s, 1, 3)
	// Reset all usage, then touch frame 1: policy should avoid it.
	for _, f := range frames {
		if err := s.ResetUsage(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ReadWord(frames[1], 0); err != nil {
		t.Fatal(err)
	}
	d := newDomain(t, s, ClockPolicyCode())
	victim, err := d.Choose()
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if victim == frames[1] {
		t.Error("policy chose the recently used frame")
	}
}

func TestClockPolicyRunsInPolicyRing(t *testing.T) {
	s := testStore(t, 4)
	populate(t, s, 1, 2)
	d := newDomain(t, s, ClockPolicyCode())
	if _, err := d.Choose(); err != nil {
		t.Fatal(err)
	}
	st := d.Proc.Stats()
	if st.GateCalls == 0 {
		t.Error("policy should reach the mechanism only through gates")
	}
	if st.CrossRingCalls == 0 {
		t.Error("policy execution should cross rings")
	}
}

func TestAdversarialPolicyBlocked(t *testing.T) {
	s := testStore(t, 6)
	frames := populate(t, s, 1, 4)
	// Wire one frame so attack 5 has a target.
	if err := s.Wire(frames[0], true); err != nil {
		t.Fatal(err)
	}
	var log AttackLog
	d := newDomain(t, s, AdversarialPolicyCode(&log))
	victim, err := d.Choose()
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	// The hostile policy still only achieved a legal eviction choice.
	info, err := s.FrameInfo(victim)
	if err != nil || info.Free || info.Wired {
		t.Errorf("victim = %v, %v", info, err)
	}

	if log.UnauthorizedReads != 0 || log.UnauthorizedWrites != 0 {
		t.Errorf("PROTECTION FAILURE: unauthorized reads=%d writes=%d", log.UnauthorizedReads, log.UnauthorizedWrites)
	}
	if log.RingFaultsBlocked < 2 {
		t.Errorf("ring faults blocked = %d, want >= 2", log.RingFaultsBlocked)
	}
	if log.GateFaultsBlocked != 1 {
		t.Errorf("gate faults blocked = %d, want 1", log.GateFaultsBlocked)
	}
	if log.SegFaultsBlocked != 1 {
		t.Errorf("segment faults blocked = %d, want 1", log.SegFaultsBlocked)
	}
	if log.WiredDenials != 1 {
		t.Errorf("wired denials = %d, want 1", log.WiredDenials)
	}
	if log.DenialMoves != 1 {
		t.Errorf("denial moves = %d, want 1", log.DenialMoves)
	}
}
