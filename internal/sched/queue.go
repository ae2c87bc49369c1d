package sched

import "slices"

// Queue is a FIFO that pops in place. Pop advances a head index and
// moves the queue down only once the popped prefix is half the slice, so
// a pop costs O(1) however deep the queue grows, and later pushes reuse
// the array. Vacated slots are cleared, so the array keeps no popped or
// removed item alive. The zero value is an empty queue. The scheduler's
// ready queue, ipc's event channels, netattach's connection and reply
// queues and the interrupt interceptor's raise times all use it.
type Queue[T comparable] struct {
	items []T
	head  int // items[head:] are queued
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) { q.items = append(q.items, v) }

// Peek returns the oldest item without removing it. The queue must not
// be empty.
func (q *Queue[T]) Peek() T { return q.items[q.head] }

// Pop removes and returns the oldest item. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return v
}

// Remove withdraws the oldest queued item equal to v, if any; the others
// keep their order.
func (q *Queue[T]) Remove(v T) {
	if i := slices.Index(q.items[q.head:], v); i >= 0 {
		q.items = slices.Delete(q.items, q.head+i, q.head+i+1)
	}
}
