package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/netattach"
	"repro/internal/workload"
	"repro/multics"
)

func newTestFleet(t *testing.T, kernels int) *Fleet {
	t.Helper()
	f, err := New(Config{Kernels: kernels})
	if err != nil {
		t.Fatalf("booting %d-kernel fleet: %v", kernels, err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestFleetBootAndRoute checks the basic composition: N kernels boot,
// the router is stable, and an attached session serves requests on its
// home kernel.
func TestFleetBootAndRoute(t *testing.T) {
	f := newTestFleet(t, 4)
	if f.Size() != 4 {
		t.Fatalf("size = %d", f.Size())
	}
	if err := f.AddUser("Alice", "Dev", "alice pw", multics.Secret); err != nil {
		t.Fatal(err)
	}
	home := f.Route("Alice", "Dev")
	if again := f.Route("Alice", "Dev"); again != home {
		t.Fatalf("routing unstable: %d then %d", home, again)
	}
	s, err := f.Attach("Alice", "Dev", "alice pw", multics.Secret)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Home() != home {
		t.Fatalf("session home %d, route says %d", s.Home(), home)
	}
	if err := s.Conn().Send(netattach.OpEcho, 42); err != nil {
		t.Fatal(err)
	}
	if err := s.Conn().Drain(); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Conn().TryRecv()
	if err != nil || !ok || v != 42 {
		t.Fatalf("echo reply = %d, %v, %v", v, ok, err)
	}
}

// TestFleetMigrationCarriesState proves live migration preserves the
// request-visible session state: the OpSum accumulator keeps counting
// across the kernel boundary, so the post-migration transcript is what
// an unmigrated session would have produced.
func TestFleetMigrationCarriesState(t *testing.T) {
	f := newTestFleet(t, 2)
	if err := f.AddUser("Mover", "Dev", "mover pw", multics.Secret); err != nil {
		t.Fatal(err)
	}
	s, err := f.Attach("Mover", "Dev", "mover pw", multics.Secret)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sum := func(arg uint64) uint64 {
		t.Helper()
		if err := s.Conn().Send(netattach.OpSum, arg); err != nil {
			t.Fatal(err)
		}
		if err := s.Conn().Drain(); err != nil {
			t.Fatal(err)
		}
		v, ok, err := s.Conn().TryRecv()
		if err != nil || !ok {
			t.Fatalf("sum reply: %v, %v", ok, err)
		}
		return v
	}

	if got := sum(5); got != 5 {
		t.Fatalf("sum(5) = %d", got)
	}
	origin := s.Home()
	target := (origin + 1) % f.Size()
	if err := s.Migrate(target); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if n := f.Metrics().Counter("fleet.migrations").Value(); s.Home() != target || n != 1 {
		t.Fatalf("home %d, fleet.migrations %d after migrate to %d", s.Home(), n, target)
	}
	if got := sum(7); got != 12 {
		t.Fatalf("sum(7) after migration = %d, want 12 (accumulator lost)", got)
	}
	if err := s.Migrate(origin); err != nil {
		t.Fatalf("migrate back: %v", err)
	}
	if got := sum(3); got != 15 {
		t.Fatalf("sum(3) after round trip = %d, want 15", got)
	}
	if f.Metrics().Counter("fleet.migrations").Value() != 2 {
		t.Fatalf("fleet.migrations = %d", f.Metrics().Counter("fleet.migrations").Value())
	}
}

// TestSnapshotRefusesUndrained checks the clean-cut precondition: a
// session with in-flight requests cannot be snapshotted.
func TestSnapshotRefusesUndrained(t *testing.T) {
	f := newTestFleet(t, 1)
	if err := f.AddUser("Busy", "Dev", "busy pw", multics.Secret); err != nil {
		t.Fatal(err)
	}
	s, err := f.Attach("Busy", "Dev", "busy pw", multics.Secret)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Conn().Send(netattach.OpEcho, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Conn().Snapshot(); !errors.Is(err, netattach.ErrNotDrained) {
		t.Fatalf("snapshot of undrained session: %v, want ErrNotDrained", err)
	}
	// Drained but with the reply unread: still refused.
	if err := s.Conn().Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Conn().Snapshot(); !errors.Is(err, netattach.ErrNotDrained) {
		t.Fatalf("snapshot with unread replies: %v, want ErrNotDrained", err)
	}
	if _, _, err := s.Conn().TryRecv(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Conn().Snapshot(); err != nil {
		t.Fatalf("snapshot of drained session: %v", err)
	}
}

// TestFleetRunDigestInvariant is the tentpole determinism claim at test
// scale: the same workload produces the same per-session transcript
// digest on 1 kernel, on 4 kernels, and on 4 kernels with every session
// migrating after every burst.
func TestFleetRunDigestInvariant(t *testing.T) {
	const conns, steps = 12, 8
	base := func() *workload.Scenario {
		return workload.NewScenario("fleet-storm", 41).
			Mix(workload.Stormer(steps, 2, conns), 1).
			Sessions(conns)
	}
	digests := make(map[string]string)
	for _, tc := range []struct {
		name    string
		kernels int
		migrate int
	}{
		{"1-kernel", 1, 0},
		{"4-kernel", 4, 0},
		{"4-kernel-migrating", 4, 1},
	} {
		f := newTestFleet(t, tc.kernels)
		rep, err := Run(f, RunConfig{Scenario: base(), MigrateEvery: tc.migrate})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%s: %d failed sessions", tc.name, rep.Failed)
		}
		if rep.Throttled != 0 {
			t.Fatalf("%s: %d throttled sends (digest not comparable)", tc.name, rep.Throttled)
		}
		if rep.Received != int64(conns*steps) {
			t.Fatalf("%s: received %d of %d replies", tc.name, rep.Received, conns*steps)
		}
		if tc.migrate > 0 && rep.Migrations == 0 {
			t.Fatalf("%s: migration cadence set but no migrations happened", tc.name)
		}
		if tc.migrate > 0 && rep.MigrationFailures != 0 {
			t.Fatalf("%s: %d migration failures", tc.name, rep.MigrationFailures)
		}
		digests[tc.name] = rep.SessionDigest
	}
	if digests["1-kernel"] != digests["4-kernel"] {
		t.Errorf("digest differs across kernel counts:\n 1: %s\n 4: %s",
			digests["1-kernel"], digests["4-kernel"])
	}
	if digests["1-kernel"] != digests["4-kernel-migrating"] {
		t.Errorf("digest differs under migration:\n unmigrated: %s\n migrating:  %s",
			digests["1-kernel"], digests["4-kernel-migrating"])
	}
}

// TestFleetRunRepeats checks a fleet replay is a function of its input:
// E17's storm, run twice on the same fleet shape, reports the same
// virtual time on every member, with and without a migration storm.
func TestFleetRunRepeats(t *testing.T) {
	run := func(kernels, migrate int) *RunReport {
		f, err := New(Config{Kernels: kernels, Workers: 8, MaxConns: 64, MemFrames: 4096})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := workload.NewScenario("e17-storm", 75).Mix(workload.Stormer(8, 2, 64), 1).Sessions(64)
		rep, err := Run(f, RunConfig{Scenario: sc, MigrateEvery: migrate})
		if err != nil {
			t.Fatalf("%d kernels: %v", kernels, err)
		}
		return rep
	}
	for _, tc := range []struct{ kernels, migrate int }{{1, 0}, {4, 1}} {
		a, b := run(tc.kernels, tc.migrate), run(tc.kernels, tc.migrate)
		if a.MaxCycles != b.MaxCycles || !reflect.DeepEqual(a.PerKernel, b.PerKernel) {
			t.Errorf("%d kernels, migrate every %d: two replays differ:\n%d %+v\n%d %+v",
				tc.kernels, tc.migrate, a.MaxCycles, a.PerKernel, b.MaxCycles, b.PerKernel)
		}
	}
}

// TestFleetRunSpreadsSessions checks the router actually distributes a
// many-principal population instead of piling everything on one kernel.
func TestFleetRunSpreadsSessions(t *testing.T) {
	f := newTestFleet(t, 4)
	sc := workload.NewScenario("spread", 9).Mix(workload.Stormer(2, 2, 32), 1).Sessions(32)
	rep, err := Run(f, RunConfig{Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, k := range rep.PerKernel {
		if k.Sessions > 0 {
			busy++
		}
		if k.Sessions == 32 {
			t.Fatalf("all sessions on one kernel: %+v", rep.PerKernel)
		}
	}
	if busy < 3 {
		t.Fatalf("only %d of 4 kernels got sessions: %+v", busy, rep.PerKernel)
	}
}

// TestFleetPersonaMixMigrationStable is the persona half of the
// determinism claim: a mixed persona scenario (editors, compilers,
// daemons, MLS tenant pairs) produces the same per-session transcript
// digest on 1 kernel, on 4 kernels with per-burst migration, and on the
// single-kernel engine — persona schedules survive live migration.
func TestFleetPersonaMixMigrationStable(t *testing.T) {
	mixed := func() *workload.Scenario {
		return workload.NewScenario("fleet-mixed", 75).
			Mix(workload.InteractiveEditor(), 3).
			Mix(workload.BatchCompiler(), 2).
			Mix(workload.Daemon(), 1).
			Mix(workload.TenantPair(), 2).
			Sessions(16)
	}
	run := func(kernels, migrate int) string {
		f := newTestFleet(t, kernels)
		rep, err := Run(f, RunConfig{Scenario: mixed(), MigrateEvery: migrate})
		if err != nil {
			t.Fatalf("%d kernels: %v", kernels, err)
		}
		if rep.Failed != 0 || rep.Throttled != 0 {
			t.Fatalf("%d kernels: failed %d throttled %d", kernels, rep.Failed, rep.Throttled)
		}
		if migrate > 0 && rep.Migrations == 0 {
			t.Fatalf("%d kernels: no migrations despite cadence %d", kernels, migrate)
		}
		return rep.SessionDigest
	}
	d1 := run(1, 0)
	if d4 := run(4, 1); d4 != d1 {
		t.Errorf("persona mix digest differs under 4-kernel migration:\n%s\n%s", d1, d4)
	}
	// The single-kernel engine folds sessions with the same encoding:
	// the two runners must agree byte-for-byte.
	single, err := workload.RunAt(multics.StageRestructured, mixed())
	if err != nil {
		t.Fatal(err)
	}
	if single.SessionDigest != d1 {
		t.Errorf("fleet and single-kernel engines disagree:\nfleet:  %s\nsingle: %s", d1, single.SessionDigest)
	}
}

// TestFleetPerMemberFaultPlans checks each member boots its own derived
// fault plan without sharing a schedule (distinct seeds) and the fleet
// still constructs and serves.
func TestFleetPerMemberFaultPlans(t *testing.T) {
	f, err := New(Config{Kernels: 2, FaultRate: 0.001, FaultSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.AddUser("Frail", "Dev", "frail pw", multics.Secret); err != nil {
		t.Fatal(err)
	}
	s, err := f.Attach("Frail", "Dev", "frail pw", multics.Secret)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Conn().Send(netattach.OpEcho, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Conn().Drain(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := s.Conn().TryRecv(); err != nil || !ok || v != 7 {
		t.Fatalf("echo under faults: %d, %v, %v", v, ok, err)
	}
}

// TestFleetChurnKeepsProcessTablesBounded closes and re-attaches 64
// sessions for 8 rounds, migrating every session to the other kernel
// before its close every other round. A session's process dies with its
// connection, so after each round each kernel's live processes are at
// most its attached sessions plus the answering service's process, and
// its spare processors never outnumber its peak live count.
func TestFleetChurnKeepsProcessTablesBounded(t *testing.T) {
	f := newTestFleet(t, 2)
	const sessions, rounds = 64, 8
	live := make([]*Session, sessions)
	for i := range live {
		person := fmt.Sprintf("Churn%02d", i)
		if err := f.AddUser(person, "Net", "churn pw", multics.Secret); err != nil {
			t.Fatal(err)
		}
		s, err := f.Attach(person, "Net", "churn pw", multics.Unclassified)
		if err != nil {
			t.Fatal(err)
		}
		live[i] = s
	}
	for round := 1; round <= rounds; round++ {
		for i, s := range live {
			if round%2 == 0 {
				if err := s.Migrate(1 - s.Home()); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("round %d: closing: %v", round, err)
			}
			person, project := s.Principal()
			var err error
			if live[i], err = f.Attach(person, project, "churn pw", multics.Unclassified); err != nil {
				t.Fatalf("round %d: re-attaching: %v", round, err)
			}
		}
		for m := 0; m < f.Size(); m++ {
			attached := f.Member(m).FE.Stats().Active
			c := f.Member(m).Sys.Kernel.ProcessCounts()
			if c.Live > attached+1 {
				t.Errorf("round %d, kernel %d: %d live processes for %d attached sessions", round, m, c.Live, attached)
			}
			if c.Spare > c.Peak {
				t.Errorf("round %d, kernel %d: %d spare processors above peak %d live", round, m, c.Spare, c.Peak)
			}
		}
	}
	for _, s := range live {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
