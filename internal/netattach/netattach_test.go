package netattach_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mls"
	"repro/internal/netattach"
	"repro/multics"
)

// boot stands a serving system up at the given stage with a store sized
// for many concurrent attachments.
func boot(t testing.TB, stage multics.Stage, cfg netattach.Config) (*multics.System, *netattach.Frontend) {
	t.Helper()
	mc := mem.DefaultConfig()
	mc.CoreFrames = 4096
	mc.BulkBlocks = 4096
	sys, err := multics.NewWithConfig(core.Config{Stage: stage, Mem: &mc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)
	if err := sys.AddUser("Schroeder", "CSR", "multics75", multics.Secret); err != nil {
		t.Fatal(err)
	}
	fe, err := sys.Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, fe
}

func TestAttachRoundTrip(t *testing.T) {
	for _, stage := range []multics.Stage{multics.StageBaseline, multics.StageRestructured} {
		t.Run(stage.String(), func(t *testing.T) {
			_, fe := boot(t, stage, netattach.Config{})
			c, err := fe.Dial("Schroeder", "CSR", "multics75", multics.Unclassified)
			if err != nil {
				t.Fatal(err)
			}
			if c.State() != netattach.StateAttached {
				t.Fatalf("state = %v", c.State())
			}
			if c.AttachLatency() <= 0 {
				t.Errorf("attach latency = %d, want > 0 (accept work costs cycles)", c.AttachLatency())
			}
			// Echo.
			if err := c.Send(netattach.OpEcho, 0xBEEF); err != nil {
				t.Fatal(err)
			}
			if v, ok, err := c.Recv(); err != nil || !ok || v != 0xBEEF {
				t.Fatalf("echo = %#x, %v, %v", v, ok, err)
			}
			// Running sum.
			for i := uint64(1); i <= 3; i++ {
				if err := c.Send(netattach.OpSum, i); err != nil {
					t.Fatal(err)
				}
			}
			fe.Flush()
			want := []uint64{1, 3, 6}
			for _, w := range want {
				if v, ok, err := c.Recv(); err != nil || !ok || v != w {
					t.Fatalf("sum = %d, %v, %v; want %d", v, ok, err, w)
				}
			}
			// Level comes back through the authorization gate.
			if err := c.Send(netattach.OpLevel, 0); err != nil {
				t.Fatal(err)
			}
			if v, _, err := c.Recv(); err != nil || mls.Level(v) != mls.Unclassified {
				t.Fatalf("level = %d, %v", v, err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if c.State() != netattach.StateClosed {
				t.Errorf("state after close = %v", c.State())
			}
			st := fe.Stats()
			if st.Accepted != 1 || st.Active != 0 {
				t.Errorf("accepted %d active %d", st.Accepted, st.Active)
			}
			if st.Delivered != 5 || st.Processed != 5 || st.Replies != 5 {
				t.Errorf("delivered/processed/replies = %d/%d/%d, want 5/5/5",
					st.Delivered, st.Processed, st.Replies)
			}
			if st.InputLost != 0 || st.ReplyLost != 0 || st.ReplyDrops != 0 {
				t.Errorf("losses = %d/%d/%d, want all 0", st.InputLost, st.ReplyLost, st.ReplyDrops)
			}
		})
	}
}

func TestDialAsyncIsListenerWork(t *testing.T) {
	_, fe := boot(t, multics.StageRestructured, netattach.Config{})
	c, err := fe.DialAsync("Schroeder", "CSR", "multics75", multics.Unclassified)
	if err != nil {
		t.Fatal(err)
	}
	// The dial only enqueued an arrival event: nothing is accepted until
	// the listener process runs.
	if c.State() != netattach.StatePending {
		t.Fatalf("state before listener ran = %v, want pending", c.State())
	}
	fe.Flush()
	if c.State() != netattach.StateAttached {
		t.Fatalf("state after listener ran = %v, want attached", c.State())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBadPasswordRejected(t *testing.T) {
	_, fe := boot(t, multics.StageRestructured, netattach.Config{})
	if _, err := fe.Dial("Schroeder", "CSR", "wrong-pw", multics.Unclassified); err == nil {
		t.Fatal("bad password should fail the dial")
	}
	st := fe.Stats()
	if st.Rejected != 1 || st.Accepted != 0 || st.Active != 0 {
		t.Errorf("rejected/accepted/active = %d/%d/%d, want 1/0/0", st.Rejected, st.Accepted, st.Active)
	}
}

func TestInputBackpressureThrottles(t *testing.T) {
	_, fe := boot(t, multics.StageRestructured, netattach.Config{HighWater: 8, LowWater: 2})
	c, err := fe.Dial("Schroeder", "CSR", "multics75", multics.Unclassified)
	if err != nil {
		t.Fatal(err)
	}
	// Without flushing, the 9th send finds the queue at the high-water
	// mark and is refused — explicitly, not silently.
	for i := 0; i < 8; i++ {
		if err := c.Send(netattach.OpEcho, uint64(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := c.Send(netattach.OpEcho, 99); !errors.Is(err, netattach.ErrThrottled) {
		t.Fatalf("send above high water = %v, want ErrThrottled", err)
	}
	st := fe.Stats()
	if st.Throttled != 1 {
		t.Errorf("throttled = %d, want 1", st.Throttled)
	}
	if st.PeakInput != 8 {
		t.Errorf("peak input = %d, want 8", st.PeakInput)
	}
	// After the workers drain the queue, sending works again and nothing
	// was lost: backpressure, not loss.
	fe.Flush()
	if err := c.Send(netattach.OpEcho, 100); err != nil {
		t.Fatal(err)
	}
	fe.Flush()
	if st := fe.Stats(); st.InputLost != 0 || st.Delivered != 9 {
		t.Errorf("lost %d delivered %d, want 0/9", st.InputLost, st.Delivered)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSlowReaderSheddingCounted(t *testing.T) {
	_, fe := boot(t, multics.StageRestructured, netattach.Config{HighWater: 8, LowWater: 2})
	c, err := fe.Dial("Schroeder", "CSR", "multics75", multics.Unclassified)
	if err != nil {
		t.Fatal(err)
	}
	// Send 20 requests, flushing so they are processed, and never read a
	// reply: the reply queue hits the high-water mark and sheds.
	for i := 0; i < 20; i++ {
		if err := c.Send(netattach.OpEcho, uint64(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		fe.Flush()
	}
	st := fe.Stats()
	if st.Processed != 20 {
		t.Fatalf("processed = %d, want 20", st.Processed)
	}
	if st.ReplyDrops == 0 {
		t.Error("slow reader should have shed replies")
	}
	if st.Replies+st.ReplyDrops != st.Processed {
		t.Errorf("replies %d + drops %d != processed %d — a reply went missing uncounted",
			st.Replies, st.ReplyDrops, st.Processed)
	}
	// The reader catches up: replies resume after the queue drains to the
	// low-water mark (hysteresis).
	got := 0
	for {
		_, ok, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got++
	}
	if int64(got) != st.Replies {
		t.Errorf("received %d, want %d", got, st.Replies)
	}
	if err := c.Send(netattach.OpEcho, 1234); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Recv(); err != nil || !ok || v != 1234 {
		t.Fatalf("post-drain echo = %d, %v, %v", v, ok, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// The heart of E6/E13: an input storm (no pumping between sends) loses
// messages in the legacy fixed circular buffers and none in the S5
// consolidated path.
func TestStormLossLegacyVsConsolidated(t *testing.T) {
	const burst = 24 // above the legacy 16-slot ring, below the high water
	run := func(stage multics.Stage) netattach.Stats {
		_, fe := boot(t, stage, netattach.Config{HighWater: 64, LowWater: 16})
		c, err := fe.Dial("Schroeder", "CSR", "multics75", multics.Unclassified)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < burst; i++ {
			if err := c.Send(netattach.OpSum, 1); err != nil {
				t.Fatalf("%v send %d: %v", stage, i, err)
			}
		}
		fe.Flush()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return fe.Stats()
	}
	legacy := run(multics.StageBaseline)
	cons := run(multics.StageIOConsolidated)
	if legacy.InputLost == 0 {
		t.Errorf("legacy path lost %d messages under a %d-burst, want > 0", legacy.InputLost, burst)
	}
	if legacy.Delivered+legacy.InputLost != burst {
		t.Errorf("legacy delivered %d + lost %d != %d", legacy.Delivered, legacy.InputLost, burst)
	}
	if cons.InputLost != 0 {
		t.Errorf("consolidated path lost %d messages, want 0", cons.InputLost)
	}
	if cons.Delivered != burst {
		t.Errorf("consolidated delivered %d, want %d", cons.Delivered, burst)
	}
}

func TestDetachFreesBufferSegment(t *testing.T) {
	sys, fe := boot(t, multics.StageRestructured, netattach.Config{})
	before := len(sys.Kernel.Services().Store.SegmentUIDs())
	c, err := fe.Dial("Schroeder", "CSR", "multics75", multics.Unclassified)
	if err != nil {
		t.Fatal(err)
	}
	during := len(sys.Kernel.Services().Store.SegmentUIDs())
	if during != before+1 {
		t.Fatalf("attach created %d kernel segments, want 1", during-before)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	after := len(sys.Kernel.Services().Store.SegmentUIDs())
	if after != before {
		t.Errorf("detach left %d kernel segments, want %d", after, before)
	}
	if got := fe.ReplyPages(); got != 0 {
		t.Errorf("reply store holds %d pages after close, want 0", got)
	}
}

func TestNetStatusGate(t *testing.T) {
	_, fe := boot(t, multics.StageRestructured, netattach.Config{})
	c, err := fe.Dial("Schroeder", "CSR", "multics75", multics.Unclassified)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Send(netattach.OpEcho, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := c.Proc().CallGate("net_$status", c.Device())
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 || out[1] != 0 {
		t.Errorf("net_$status = %v, want [3 0]", out)
	}
	fe.Flush()
	out, err = c.Proc().CallGate("net_$status", c.Device())
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("net_$status after drain = %v, want [0 0]", out)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFrontendCloseDrainsEverything(t *testing.T) {
	sys, fe := boot(t, multics.StageRestructured, netattach.Config{})
	var conns []*netattach.Conn
	for i := 0; i < 5; i++ {
		c, err := fe.Dial("Schroeder", "CSR", "multics75", multics.Unclassified)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if err := c.Send(netattach.OpEcho, uint64(j)); err != nil {
				t.Fatal(err)
			}
		}
		conns = append(conns, c)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	if st.Active != 0 || st.Delivered != 20 || st.InputLost != 0 {
		t.Errorf("after close: active %d delivered %d lost %d, want 0/20/0",
			st.Active, st.Delivered, st.InputLost)
	}
	for _, c := range conns {
		if c.State() != netattach.StateClosed {
			t.Errorf("connection %d state = %v", c.ID(), c.State())
		}
		if err := c.Send(netattach.OpEcho, 1); !errors.Is(err, netattach.ErrFrontendClosed) {
			t.Errorf("send after close = %v", err)
		}
	}
	if _, err := fe.Dial("Schroeder", "CSR", "multics75", multics.Unclassified); !errors.Is(err, netattach.ErrFrontendClosed) {
		t.Errorf("dial after close = %v", err)
	}
	// Shutdown still works (idempotent close inside).
	sys.Shutdown()
}

// TestConnections500 holds 500 connections open at once on one
// front-end, driven from one goroutine: all dial, then all send, then
// all read, then all close, with exact accounting and zero loss.
func TestConnections500(t *testing.T) {
	const conns = 500
	const perConn = 4
	mc := mem.DefaultConfig()
	mc.CoreFrames = 4 * conns
	mc.BulkBlocks = 2 * conns
	sys, err := multics.NewWithConfig(core.Config{Stage: multics.StageRestructured, Mem: &mc})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	for i := 0; i < 8; i++ {
		person := fmt.Sprintf("User%d", i)
		if err := sys.AddUser(person, "Load", "stormpw75", multics.Secret); err != nil {
			t.Fatal(err)
		}
	}
	fe, err := sys.Serve(netattach.Config{Workers: 8, MaxConns: conns})
	if err != nil {
		t.Fatal(err)
	}
	cs := make([]*netattach.Conn, conns)
	for i := range cs {
		c, err := fe.Dial(fmt.Sprintf("User%d", i%8), "Load", "stormpw75", multics.Unclassified)
		if err != nil {
			t.Fatalf("conn %d dial: %v", i, err)
		}
		cs[i] = c
	}
	if st := fe.Stats(); st.Active != conns {
		t.Fatalf("active %d after dialing, want %d", st.Active, conns)
	}
	var want uint64
	for j := 0; j < perConn; j++ {
		want += uint64(j + 1)
		for i, c := range cs {
			if err := c.Send(netattach.OpSum, uint64(j+1)); err != nil {
				t.Fatalf("conn %d send %d: %v", i, j, err)
			}
		}
	}
	for i, c := range cs {
		var last uint64
		for j := 0; j < perConn; j++ {
			v, ok, err := c.Recv()
			if err != nil || !ok {
				t.Fatalf("conn %d recv %d: %v %v", i, j, ok, err)
			}
			last = v
		}
		if last != want {
			t.Errorf("conn %d sum = %d, want %d", i, last, want)
		}
	}
	for i, c := range cs {
		if err := c.Close(); err != nil {
			t.Errorf("conn %d close: %v", i, err)
		}
	}
	st := fe.Stats()
	if st.Accepted != conns || st.Active != 0 {
		t.Errorf("accepted %d active %d, want %d/0", st.Accepted, st.Active, conns)
	}
	if st.Delivered != conns*perConn || st.Processed != conns*perConn {
		t.Errorf("delivered/processed = %d/%d, want %d", st.Delivered, st.Processed, conns*perConn)
	}
	if st.InputLost != 0 || st.ReplyLost != 0 || st.ReplyDrops != 0 {
		t.Errorf("losses = %d/%d/%d, want all 0", st.InputLost, st.ReplyLost, st.ReplyDrops)
	}
	if st.AttachP99 < st.AttachP50 || st.AttachP50 <= 0 {
		t.Errorf("attach latency p50 %d p99 %d", st.AttachP50, st.AttachP99)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
}
