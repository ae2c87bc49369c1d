package netattach

import "testing"

// TestConnQueuesPopInPlace drives the front-end's two connection queues:
// the listener's accept queue and the workers' run queue, the latter
// through popRunnable. Uneven bursts of pushes and pops keep FIFO order,
// popped and withdrawn slots keep no connection alive, and a steady-state
// push/pop pair reuses the queue's array.
func TestConnQueuesPopInPlace(t *testing.T) {
	conns := make([]*Conn, 128)
	for i := range conns {
		conns[i] = &Conn{id: uint64(i + 1), state: StateAttached}
	}
	// retained reports a connection left in the array outside the queue.
	retained := func(q *connQueue) bool {
		for i, c := range q.conns[:cap(q.conns)] {
			if c != nil && (i < q.head || i >= len(q.conns)) {
				return true
			}
		}
		return false
	}
	fe := &Frontend{}
	for _, tc := range []struct {
		name string
		q    *connQueue
		pop  func() *Conn
	}{
		{"acceptq", &fe.acceptq, fe.acceptq.pop},
		{"runq", &fe.runq, fe.popRunnable},
	} {
		pushed, popped := 0, 0
		pop := func(when string) {
			t.Helper()
			if c := tc.pop(); c != conns[popped] {
				t.Fatalf("%s %s: popped connection %d, want %d", tc.name, when, c.id, conns[popped].id)
			}
			popped++
		}
		for round := 1; round <= 20; round++ {
			for i := 0; i < round%7+1; i++ {
				tc.q.push(conns[pushed])
				pushed++
			}
			for i := 0; i < round%5+1 && popped < pushed; i++ {
				pop("in a burst")
			}
			if got, want := tc.q.len(), pushed-popped; got != want {
				t.Fatalf("%s round %d: %d queued, want %d", tc.name, round, got, want)
			}
			if retained(tc.q) {
				t.Fatalf("%s round %d: a popped connection is still in the array", tc.name, round)
			}
		}
		for popped < pushed {
			pop("draining")
		}
		// Steady state: one connection in, one out, long past any slack
		// the bursts left in the array.
		pair := func() {
			for i := 0; i < 8; i++ {
				tc.q.push(conns[0])
				tc.pop()
			}
		}
		for i := 0; i < 64; i++ {
			pair()
		}
		if allocs := testing.AllocsPerRun(100, pair); allocs != 0 {
			t.Errorf("%s: 8 pushes and pops allocate %.1f times, want 0", tc.name, allocs)
		}
	}

	// Withdrawal, as Close and a failed DialAsync do it: the others keep
	// their order, and the withdrawn slot keeps nothing alive.
	q := &fe.acceptq
	for _, c := range conns[:5] {
		q.push(c)
	}
	q.pop()
	q.remove(conns[2])
	q.remove(conns[4]) // the tail, as DialAsync withdraws it
	q.remove(conns[9]) // not queued: no change
	for _, want := range []*Conn{conns[1], conns[3]} {
		if c := q.pop(); c != want {
			t.Fatalf("after withdrawals: popped connection %d, want %d", c.id, want.id)
		}
	}
	if q.len() != 0 || retained(q) {
		t.Fatalf("after withdrawals: %d queued, retained %v", q.len(), retained(q))
	}
}
