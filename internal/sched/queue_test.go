package sched

import "testing"

// TestQueuePopsInPlace drives the FIFO behind the ready queue, ipc's
// channels and netattach's connection queues. Uneven bursts of pushes
// and pops keep FIFO order, popped and removed slots keep no item alive,
// a steady-state push/pop pair reuses the array, and Remove keeps the
// order of the rest.
func TestQueuePopsInPlace(t *testing.T) {
	type item struct{ n int }
	items := make([]*item, 128)
	for i := range items {
		items[i] = &item{n: i}
	}
	// retained reports an item left in the array outside the queue.
	retained := func(q *Queue[*item]) bool {
		for i, v := range q.items[:cap(q.items)] {
			if v != nil && (i < q.head || i >= len(q.items)) {
				return true
			}
		}
		return false
	}
	var q Queue[*item]
	pushed, popped := 0, 0
	pop := func(when string) {
		t.Helper()
		if v := q.Peek(); v != items[popped] {
			t.Fatalf("%s: peeked item %d, want %d", when, v.n, popped)
		}
		if v := q.Pop(); v != items[popped] {
			t.Fatalf("%s: popped item %d, want %d", when, v.n, popped)
		}
		popped++
	}
	for round := 1; round <= 20; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(items[pushed])
			pushed++
		}
		for i := 0; i < round%5+1 && popped < pushed; i++ {
			pop("in a burst")
		}
		if got, want := q.Len(), pushed-popped; got != want {
			t.Fatalf("round %d: %d queued, want %d", round, got, want)
		}
		if retained(&q) {
			t.Fatalf("round %d: a popped item is still in the array", round)
		}
	}
	for popped < pushed {
		pop("draining")
	}
	// Steady state: one item in, one out, long past any slack the bursts
	// left in the array.
	pair := func() {
		for i := 0; i < 8; i++ {
			q.Push(items[0])
			q.Pop()
		}
	}
	for i := 0; i < 64; i++ {
		pair()
	}
	if allocs := testing.AllocsPerRun(100, pair); allocs != 0 {
		t.Errorf("8 pushes and pops allocate %.1f times, want 0", allocs)
	}

	// Withdrawal, as netattach's Close and failed DialAsync do it: the
	// others keep their order, and the withdrawn slot keeps nothing alive.
	for _, v := range items[:5] {
		q.Push(v)
	}
	q.Pop()
	q.Remove(items[2])
	q.Remove(items[4]) // the tail, as DialAsync withdraws it
	q.Remove(items[9]) // not queued: no change
	for _, want := range []*item{items[1], items[3]} {
		if v := q.Pop(); v != want {
			t.Fatalf("after withdrawals: popped item %d, want %d", v.n, want.n)
		}
	}
	if q.Len() != 0 || retained(&q) {
		t.Fatalf("after withdrawals: %d queued, retained %v", q.Len(), retained(&q))
	}
}
