package netattach

import (
	"errors"
	"fmt"

	"repro/internal/mls"
	"repro/internal/trace"
)

// Live session migration support. A session is migrated between two
// kernels by draining it on its home front-end, snapshotting the state a
// replay cannot regenerate, replay-attaching it on the target front-end
// through the ordinary accept path (login gate, attach gate, fresh KST),
// and restoring the snapshot into the new connection. Everything the
// attach path rebuilds deterministically — descriptors, gate segments,
// device table entry — is deliberately NOT in the snapshot: the replay
// is the restore, and the snapshot carries only the request-visible
// session state (the OpSum accumulator, the reply sequence) plus the
// KST population for verifying the replayed address space has the same
// shape. The migration witness is the per-session transcript digest:
// byte-identical whether the session migrated zero times or many.

// Migration errors.
var (
	// ErrNotDrained: the session still has queued input or unread
	// replies; migrating now would lose or reorder them.
	ErrNotDrained = errors.New("netattach: session not drained")
	// ErrReplayMismatch: the replayed attach produced a different
	// address-space shape than the snapshot recorded.
	ErrReplayMismatch = errors.New("netattach: replay-attach KST mismatch")
)

// SessionState is the migratable state of one attached connection: what
// a replay-attach on another kernel cannot rebuild on its own.
type SessionState struct {
	// Person/Project/Level identify the principal; the password is
	// deliberately absent (the front-end cleared it at accept) — the
	// migrating orchestrator re-authenticates on the target.
	Person  string    `json:"person"`
	Project string    `json:"project"`
	Level   mls.Level `json:"level"`

	// Sum is the OpSum accumulator: the one piece of request-visible
	// state that later replies depend on.
	Sum uint64 `json:"sum"`
	// ReplySeq is the reply sequence counter, so the migrated
	// connection's reply stream numbers continue instead of restarting.
	ReplySeq uint64 `json:"reply_seq"`

	// Delivered/Processed carry the session's service counters across
	// for accounting continuity.
	Delivered int64 `json:"delivered"`
	Processed int64 `json:"processed"`

	// KnownSegs and KnownUIDs snapshot the process's KST at drain: the
	// replay-attach on the target must reproduce the same population
	// (same count of known segments) or the migration is refused.
	KnownSegs int      `json:"known_segs"`
	KnownUIDs []uint64 `json:"known_uids,omitempty"`
}

// Snapshot captures the connection's migratable session state. The
// session must be fully drained first — no queued input, no unread
// replies — so the transcript has a clean cut point; otherwise
// ErrNotDrained is returned and nothing is recorded. The connection
// stays attached: snapshotting is read-only.
func (c *Conn) Snapshot() (*SessionState, error) {
	fe := c.fe
	if c.state != StateAttached {
		return nil, fmt.Errorf("%w: connection %d is %v", ErrNotAttached, c.id, c.state)
	}
	if q, err := fe.k.DeviceQueue(c.dev); err != nil {
		return nil, err
	} else if q > 0 || c.queued {
		return nil, fmt.Errorf("%w: connection %d has %d queued requests", ErrNotDrained, c.id, q)
	}
	if n := c.out.Len(); n > 0 {
		return nil, fmt.Errorf("%w: connection %d has %d unread replies", ErrNotDrained, c.id, n)
	}
	st := &SessionState{
		Person: c.person, Project: c.project, Level: c.level,
		Sum: c.sum, ReplySeq: c.replySeq,
		Delivered: c.delivered, Processed: c.processed,
	}
	for _, e := range c.proc.KST.Known() {
		st.KnownUIDs = append(st.KnownUIDs, e.UID)
	}
	st.KnownSegs = len(st.KnownUIDs)
	fe.emit(trace.Event{Name: "migrate_out", Subject: c.id,
		Arg: uint64(st.KnownSegs), Outcome: trace.ClassOK})
	return st, nil
}

// AttachMigrated replay-attaches a migrated session on this front-end:
// the connection goes through the ordinary accept path (authentication
// through the answering service, attachment through the stage's kernel
// gate, a fresh process with a fresh KST), and the snapshot is then
// restored into it. The replayed KST population must match the
// snapshot's, proving the rebuilt address space has the shape the
// drained one had; on mismatch the connection is closed and
// ErrReplayMismatch returned.
func (fe *Frontend) AttachMigrated(person, project, password string, level mls.Level, st *SessionState) (*Conn, error) {
	if st == nil {
		return nil, errors.New("netattach: nil session state")
	}
	c, err := fe.Dial(person, project, password, level)
	if err != nil {
		return nil, err
	}
	if got := c.proc.KST.Len(); got != st.KnownSegs {
		_ = c.Close()
		return nil, fmt.Errorf("%w: replay knows %d segments, snapshot knew %d",
			ErrReplayMismatch, got, st.KnownSegs)
	}
	c.sum = st.Sum
	c.replySeq = st.ReplySeq
	c.delivered = st.Delivered
	c.processed = st.Processed
	fe.emit(trace.Event{Name: "migrate_in", Subject: c.id,
		Arg: uint64(st.KnownSegs), Outcome: trace.ClassOK})
	return c, nil
}
