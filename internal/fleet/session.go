package fleet

import (
	"fmt"

	"repro/internal/netattach"
	"repro/multics"
)

// Session is one fleet-routed session: a connection on its current
// kernel plus the credentials the fleet needs to re-authenticate it
// elsewhere. The session's transcript is whatever its owner reads from
// Conn(); migration never changes it — that is the migration claim.
type Session struct {
	f               *Fleet
	person, project string
	password        string
	level           multics.Level
	home            int
	conn            *netattach.Conn
}

// Conn returns the session's live connection on its current kernel.
// After a successful Migrate the previous connection is closed and this
// returns the new one.
func (s *Session) Conn() *netattach.Conn { return s.conn }

// Home returns the index of the kernel currently serving the session.
func (s *Session) Home() int { return s.home }

// Principal returns the session's routing identity.
func (s *Session) Principal() (person, project string) { return s.person, s.project }

// Close closes the session's connection on its current kernel.
func (s *Session) Close() error { return s.conn.Close() }

// Migrate moves the live session to kernel target:
//
//  1. drain — the home front-end delivers and executes every queued
//     request, so the transcript has a clean cut point (the caller must
//     have read all replies; Snapshot refuses otherwise);
//  2. snapshot — the connection's KST population and request-visible
//     session state are captured (netattach.SessionState);
//  3. detach — the home connection closes through the ordinary path;
//  4. replay-attach — the target kernel re-authenticates the principal
//     and re-attaches through its own gates, then the snapshot is
//     restored and verified against the replayed KST.
//
// On a replay failure the session is re-attached on its home kernel
// (with the same snapshot), so a failed migration never kills a healthy
// session; the failure is counted in fleet.migration_failures.
func (s *Session) Migrate(target int) error {
	f := s.f
	if target < 0 || target >= f.Size() {
		return fmt.Errorf("fleet: migrate to kernel %d of %d", target, f.Size())
	}
	if target == s.home {
		return nil
	}
	if err := s.conn.Drain(); err != nil {
		return fmt.Errorf("fleet: draining session %s.%s: %w", s.person, s.project, err)
	}
	st, err := s.conn.Snapshot()
	if err != nil {
		return fmt.Errorf("fleet: snapshotting session %s.%s: %w", s.person, s.project, err)
	}
	if err := s.conn.Close(); err != nil {
		return fmt.Errorf("fleet: detaching session %s.%s: %w", s.person, s.project, err)
	}
	conn, err := f.Member(target).FE.AttachMigrated(s.person, s.project, s.password, s.level, st)
	if err != nil {
		f.mMigrationFailures.Inc()
		// Fall back home: the session survives a failed migration.
		back, backErr := f.Member(s.home).FE.AttachMigrated(s.person, s.project, s.password, s.level, st)
		if backErr != nil {
			return fmt.Errorf("fleet: migrating %s.%s to kernel %d failed (%v) and fallback re-attach failed: %w",
				s.person, s.project, target, err, backErr)
		}
		s.conn = back
		return fmt.Errorf("fleet: migrating %s.%s to kernel %d: %w", s.person, s.project, target, err)
	}
	s.conn = conn
	s.home = target
	f.mMigrations.Inc()
	return nil
}
