package netattach

import "testing"

// TestPopRunnableSkipsClosedConnections: a connection that closed or
// failed while queued is dropped from the run queue, with its queued
// mark cleared, and the workers get the next serviceable one in order.
func TestPopRunnableSkipsClosedConnections(t *testing.T) {
	fe := &Frontend{}
	states := []State{StateAttached, StateClosed, StateFailed, StateDraining, StateAttached}
	conns := make([]*Conn, len(states))
	for i, st := range states {
		conns[i] = &Conn{id: uint64(i + 1), state: st, queued: true}
		fe.runq.Push(conns[i])
	}
	for _, want := range []*Conn{conns[0], conns[3], conns[4]} {
		if c := fe.popRunnable(); c != want {
			t.Fatalf("popRunnable = connection %v, want %d", c, want.id)
		}
	}
	if c := fe.popRunnable(); c != nil {
		t.Fatalf("popRunnable on a drained queue = connection %d, want nil", c.id)
	}
	for _, c := range conns[1:3] {
		if c.queued {
			t.Errorf("skipped %v connection %d still marked queued", c.state, c.id)
		}
	}
}
