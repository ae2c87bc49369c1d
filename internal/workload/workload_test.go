package workload_test

import (
	"fmt"
	"testing"

	"repro/internal/acl"
	"repro/internal/faults"
	"repro/internal/fs"
	"repro/internal/mls"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/multics"
)

// storm builds the classic single-persona storm scenario the historical
// tests exercised.
func storm(conns, steps, burst int, seed int64) *workload.Scenario {
	return workload.NewScenario("storm", seed).
		Mix(workload.Stormer(steps, burst, 0), 1).
		Sessions(conns)
}

func TestDeterministicDigest(t *testing.T) {
	r1, err := workload.RunAt(multics.StageRestructured, storm(32, 6, 3, 75))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := workload.RunAt(multics.StageRestructured, storm(32, 6, 3, 75))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest != r2.Digest {
		t.Fatalf("same seed, different digests:\n%s\n%s", r1.Digest, r2.Digest)
	}
	r3, err := workload.RunAt(multics.StageRestructured, storm(32, 6, 3, 76))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Digest == r1.Digest {
		t.Fatalf("different seeds, same digest %s", r1.Digest)
	}
}

// TestStormDigestGolden pins the classic storm's transcript digest to
// the value the flat-Config generator produced before the scenario API
// replaced it: the Stormer persona must keep reproducing historical
// seeds byte-for-byte.
func TestStormDigestGolden(t *testing.T) {
	const want = "6f742bd24b355f322511c6fe74d31ddd8e37804e57573a4b93144d3967647e44"
	rep, err := workload.RunAt(multics.StageRestructured, storm(12, 10, 4, 75))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Digest != want {
		t.Fatalf("storm digest %s, want %s", rep.Digest, want)
	}
}

func TestStormLegacyLosesConsolidatedDoesNot(t *testing.T) {
	// A burst of 24 overruns the legacy 16-slot circular buffers but
	// fits easily inside the S5 infinite buffers.
	legacy, err := workload.RunAt(multics.StageBaseline, storm(8, 24, 24, 75))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Stats.InputLost == 0 {
		t.Fatal("legacy path lost nothing under a 24-message storm")
	}
	if got := legacy.Stats.Delivered + legacy.Stats.InputLost; got != legacy.Sent {
		t.Fatalf("legacy accounting: delivered %d + lost %d != sent %d",
			legacy.Stats.Delivered, legacy.Stats.InputLost, legacy.Sent)
	}

	s5, err := workload.RunAt(multics.StageIOConsolidated, storm(8, 24, 24, 75))
	if err != nil {
		t.Fatal(err)
	}
	if s5.Stats.InputLost != 0 || s5.Stats.ReplyLost != 0 {
		t.Fatalf("consolidated path lost traffic: input %d reply %d",
			s5.Stats.InputLost, s5.Stats.ReplyLost)
	}
	if s5.Stats.Delivered != s5.Sent {
		t.Fatalf("consolidated path delivered %d of %d sent", s5.Stats.Delivered, s5.Sent)
	}
	if s5.Received <= legacy.Received {
		t.Fatalf("consolidated path received %d replies, legacy %d — expected more",
			s5.Received, legacy.Received)
	}
}

func Test500ConcurrentConnections(t *testing.T) {
	rep, err := workload.RunAt(multics.StageRestructured, storm(500, 2, 2, 75))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Accepted != 500 {
		t.Fatalf("accepted %d connections, want 500", rep.Stats.Accepted)
	}
	want := int64(500 * 2)
	if rep.Sent != want || rep.Stats.Processed != want || rep.Received != want {
		t.Fatalf("sent %d processed %d received %d, want %d each",
			rep.Sent, rep.Stats.Processed, rep.Received, want)
	}
	if rep.Stats.InputLost != 0 || rep.Stats.ReplyLost != 0 || rep.Stats.ReplyDrops != 0 {
		t.Fatalf("losses under 500-connection load: %+v", rep.Stats)
	}
	if rep.Stats.AttachP50 <= 0 || rep.Stats.AttachP99 < rep.Stats.AttachP50 {
		t.Fatalf("attach percentiles p50 %d p99 %d", rep.Stats.AttachP50, rep.Stats.AttachP99)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput %.2f", rep.Throughput)
	}
}

func TestThrottleCounted(t *testing.T) {
	// Burst far beyond the high-water mark: the surplus is refused,
	// counted, and nothing is silently dropped on the S5 path.
	sc := storm(4, 100, 100, 7)
	sys, err := workload.Boot(multics.StageRestructured, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	rep, err := workload.Run(sys, sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throttled == 0 {
		t.Fatal("a 100-deep burst never hit the high-water mark")
	}
	if rep.Stats.InputLost != 0 {
		t.Fatalf("throttling should prevent loss, got %d lost", rep.Stats.InputLost)
	}
	if rep.Sent+rep.Throttled != int64(4*100) {
		t.Fatalf("sent %d + throttled %d != %d", rep.Sent, rep.Throttled, 4*100)
	}
}

// mixed builds the canonical four-persona scenario the arrival-model
// tests replay.
func mixed(seed int64) *workload.Scenario {
	return workload.NewScenario("mixed", seed).
		Mix(workload.InteractiveEditor(), 3).
		Mix(workload.BatchCompiler(), 2).
		Mix(workload.Daemon(), 1).
		Mix(workload.TenantPair(), 2).
		Sessions(24)
}

// TestParallelReplayDigestInvariant is the determinism guarantee of the
// replay engine: two replays of the same scenario produce byte-identical
// transcript digests in identical virtual time, because one goroutine
// drives every session in the plan's fixed round order.
func TestParallelReplayDigestInvariant(t *testing.T) {
	run := func() *workload.Report {
		r, err := workload.RunAt(multics.StageRestructured, storm(24, 12, 12, 75))
		if err != nil {
			t.Fatal(err)
		}
		if r.Sent == 0 || r.Received != r.Sent {
			t.Fatalf("sent %d received %d", r.Sent, r.Received)
		}
		return r
	}
	r1, r2 := run(), run()
	if r1.Digest != r2.Digest {
		t.Errorf("two replays, different digests:\n%s\n%s", r1.Digest, r2.Digest)
	}
	if r1.Cycles != r2.Cycles {
		t.Errorf("two replays, different virtual time: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
}

// TestArrivalModelDeterminism is the arrival-model half of the
// determinism guarantee: open- and closed-loop persona schedules — and
// the transcripts and virtual time they produce — are byte-identical
// across two replays, and two compiles of the same scenario agree.
func TestArrivalModelDeterminism(t *testing.T) {
	shapes := map[string]func() *workload.Scenario{
		"closed": func() *workload.Scenario { return mixed(75).ClosedLoop() },
		"open":   func() *workload.Scenario { return mixed(75).OpenLoop(3) },
	}
	for name, build := range shapes {
		t.Run(name, func(t *testing.T) {
			plan1, err := build().Plan()
			if err != nil {
				t.Fatal(err)
			}
			plan2, err := build().Plan()
			if err != nil {
				t.Fatal(err)
			}
			if plan1.ScheduleDigest() != plan2.ScheduleDigest() {
				t.Fatalf("two compiles of the same scenario disagree:\n%s\n%s",
					plan1.ScheduleDigest(), plan2.ScheduleDigest())
			}

			run := func() *workload.Report {
				r, err := workload.RunAt(multics.StageRestructured, build())
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			r1, r2 := run(), run()
			if r1.ScheduleDigest != plan1.ScheduleDigest() {
				t.Fatalf("report schedule digest %s != compiled %s", r1.ScheduleDigest, plan1.ScheduleDigest())
			}
			if r1.ScheduleDigest != r2.ScheduleDigest {
				t.Errorf("schedule digest differs across replays:\n%s\n%s", r1.ScheduleDigest, r2.ScheduleDigest)
			}
			if r1.Digest != r2.Digest {
				t.Errorf("transcript digest differs across replays:\n%s\n%s", r1.Digest, r2.Digest)
			}
			if r1.SessionDigest != r2.SessionDigest {
				t.Errorf("session digest differs across replays:\n%s\n%s", r1.SessionDigest, r2.SessionDigest)
			}
			if r1.Cycles != r2.Cycles {
				t.Errorf("virtual time differs across replays: %d vs %d cycles", r1.Cycles, r2.Cycles)
			}
			if r1.Throttled != 0 || r1.Failed != 0 {
				t.Fatalf("persona mix throttled %d failed %d — bursts must stay under the high-water mark",
					r1.Throttled, r1.Failed)
			}
			if len(r1.Personas) != 4 {
				t.Fatalf("got %d persona sections, want 4: %+v", len(r1.Personas), r1.Personas)
			}
			for i, p := range r1.Personas {
				if i > 0 && r1.Personas[i-1].Name >= p.Name {
					t.Errorf("persona sections not sorted: %q before %q", r1.Personas[i-1].Name, p.Name)
				}
				if p.Sessions == 0 || p.Sent == 0 || p.Received != p.Sent {
					t.Errorf("persona %q: sessions %d sent %d received %d", p.Name, p.Sessions, p.Sent, p.Received)
				}
				if p.Digest != r2.Personas[i].Digest {
					t.Errorf("persona %q digest differs across replays", p.Name)
				}
			}
		})
	}
}

// TestOpenLoopStaggersArrivals asserts the open-loop model actually
// spreads session start rounds out (and the closed-loop model does not).
func TestOpenLoopStaggersArrivals(t *testing.T) {
	open, err := mixed(75).OpenLoop(3).Plan()
	if err != nil {
		t.Fatal(err)
	}
	starts := map[int]bool{}
	for _, ws := range open.Windows {
		starts[ws[0].Round] = true
	}
	if len(starts) < 4 {
		t.Fatalf("open-loop arrivals landed on only %d distinct rounds", len(starts))
	}
	closed, err := mixed(75).ClosedLoop().Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i, ws := range closed.Windows {
		if ws[0].Round != 0 {
			t.Fatalf("closed-loop session %d starts at round %d, want 0", i, ws[0].Round)
		}
	}
	if open.ScheduleDigest() == closed.ScheduleDigest() {
		t.Fatal("open- and closed-loop schedules hash identically")
	}
}

// countingSink counts trace events delivered through the Scenario.Trace
// tee.
type countingSink struct{ n int }

func (s *countingSink) Record(trace.Event) { s.n++ }

// TestTraceStreamParallelismInvariant is the trace-spine half of the
// determinism guarantee: the attachment-lifecycle trace stream, hashed
// in arrival order, is byte-identical across two replays, and the
// caller-supplied trace tee sees the full stream (one attach, one
// event per request, one drain, one close per connection).
func TestTraceStreamParallelismInvariant(t *testing.T) {
	const conns, steps = 24, 12

	run := func() (*workload.Report, int) {
		sink := &countingSink{}
		r, err := workload.RunAt(multics.StageRestructured, storm(conns, steps, steps, 75).Trace(sink))
		if err != nil {
			t.Fatal(err)
		}
		if r.TraceDigest == "" {
			t.Fatal("empty trace digest")
		}
		return r, sink.n
	}

	r1, n1 := run()
	// attach + one event per processed request + drain + close, per conn.
	want := conns*3 + conns*steps
	if n1 != want {
		t.Fatalf("tee saw %d events, want %d", n1, want)
	}
	r2, n2 := run()
	if n2 != n1 {
		t.Fatalf("tee saw %d events on the second replay, %d on the first", n2, n1)
	}
	if r2.TraceDigest != r1.TraceDigest {
		t.Fatalf("trace digest differs across replays:\n%s\n%s", r1.TraceDigest, r2.TraceDigest)
	}
	if r2.Cycles != r1.Cycles {
		t.Fatalf("virtual time differs across replays: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
}

func TestFaultPlanDigestAndSalvageParallelismInvariant(t *testing.T) {
	// Same fault plan, two replays: the reply transcript digest, the
	// salvager's repair report and the virtual time must be identical —
	// injected faults are a function of the plan.
	run := func() (string, string, int64) {
		spec := faults.UniformSpec(4242, 0.01, 4)
		sc := storm(24, 10, 10, 31).Faults(&spec)
		sys, err := workload.Boot(multics.StageIOConsolidated, sc)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Shutdown()
		rep, err := workload.Run(sys, sc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%d sessions failed despite recovery paths", rep.Failed)
		}
		svc := sys.Kernel.Services()
		// Grow the same deterministic tree in both runs so the crash has
		// identical victims to choose from.
		who := acl.Principal{Person: "Crash", Project: "Test", Tag: "a"}
		unc := mls.NewLabel(mls.Unclassified)
		dir, err := svc.Hierarchy.Create(who, unc, fs.RootUID, "crashdir",
			fs.CreateOptions{Kind: fs.KindDirectory, Label: unc})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := svc.Hierarchy.Create(who, unc, dir, fmt.Sprintf("s%d", i),
				fs.CreateOptions{Kind: fs.KindSegment, Label: unc, Length: 32}); err != nil {
				t.Fatal(err)
			}
		}
		corrupted, salvageRep, err := svc.Faults.CrashAndSalvage(svc.Hierarchy)
		if err != nil {
			t.Fatal(err)
		}
		if corrupted == 0 {
			t.Fatal("crash corrupted nothing — the salvage comparison would be vacuous")
		}
		verify, err := svc.Hierarchy.Salvage(false)
		if err != nil {
			t.Fatal(err)
		}
		if !verify.Clean() {
			t.Fatalf("hierarchy dirty after salvage: %v", verify.Problems)
		}
		return rep.Digest, salvageRep.Format(), rep.Cycles
	}
	d1, s1, c1 := run()
	d2, s2, c2 := run()
	if d1 != d2 {
		t.Errorf("transcript digest differs across replays:\n 1: %s\n 2: %s", d1, d2)
	}
	if s1 != s2 {
		t.Errorf("salvage report differs across replays:\n 1: %q\n 2: %q", s1, s2)
	}
	if c1 != c2 {
		t.Errorf("virtual time differs across replays: %d vs %d cycles", c1, c2)
	}
}

func TestFaultPlanSameSeedSameReport(t *testing.T) {
	run := func() *workload.Report {
		spec := faults.UniformSpec(777, 0.005, 0)
		r, err := workload.RunAt(multics.StageIOConsolidated, storm(16, 8, 8, 5).Faults(&spec))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := run(), run()
	if r1.Digest != r2.Digest {
		t.Errorf("same plan, different digests: %s vs %s", r1.Digest, r2.Digest)
	}
}
