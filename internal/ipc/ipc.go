// Package ipc provides the base-level interprocess communication facility of
// the redesigned kernel: event channels carrying wakeups (and optionally
// small event messages) between processes.
//
// The paper's key property is that use of the new IPC facility "can be
// controlled with the standard memory protection mechanisms of the kernel":
// an event channel is governed by a segment, and the right to signal or
// await it is exactly the right to write or read that segment. The kernel's
// event-channel gates check that access before they touch a channel
// (internal/core), so the mechanism here stays policy-free and checks
// nothing itself.
package ipc

import (
	"errors"

	"repro/internal/sched"
)

// ErrChannelClosed is returned by operations on a closed channel.
var ErrChannelClosed = errors.New("ipc: event channel closed")

// Event is one event delivered over a channel.
type Event struct {
	// From names the signalling process (empty for device events).
	From string
	// Data is an optional small payload.
	Data uint64
	// At is the virtual time the event was signalled.
	At int64
}

// Channel is an event channel: a queue of pending events plus a queue of
// waiting processes. Signalling an empty channel with waiters wakes the
// first waiter (wakeups are never lost; they accumulate as pending events
// when nobody waits, which is what lets interrupt handlers be simple loops).
type Channel struct {
	Name    string
	sch     *sched.Scheduler
	pending sched.Queue[Event]
	waiters sched.Queue[*sched.Process]
	closed  bool
	// awaitReason is the block reason Await reports, built once.
	awaitReason string
}

// NewChannel creates an event channel.
func NewChannel(name string, sch *sched.Scheduler) *Channel {
	return &Channel{Name: name, sch: sch, awaitReason: "await " + name}
}

// Signal appends an event and wakes the first waiter, if any. It may be
// called from any process or from interrupt context (with p nil).
func (c *Channel) Signal(p *sched.Process, ev Event) error {
	if c.closed {
		return ErrChannelClosed
	}
	if p != nil && ev.From == "" {
		ev.From = p.Name
	}
	ev.At = c.sch.Clock.Now()
	c.pending.Push(ev)
	if c.waiters.Len() > 0 {
		c.sch.Unblock(c.waiters.Pop())
	}
	return nil
}

// Await blocks the calling process until an event is pending, then removes
// and returns it.
func (c *Channel) Await(pc *sched.ProcCtx) (Event, error) {
	for c.Pending() == 0 {
		if c.closed {
			return Event{}, ErrChannelClosed
		}
		c.waiters.Push(pc.Process())
		pc.Block(c.awaitReason)
	}
	return c.pending.Pop(), nil
}

// TryAwait removes and returns a pending event without blocking; ok is
// false when none is pending.
func (c *Channel) TryAwait() (ev Event, ok bool) {
	if c.Pending() == 0 {
		return Event{}, false
	}
	return c.pending.Pop(), true
}

// Pending returns the number of queued events.
func (c *Channel) Pending() int { return c.pending.Len() }

// Waiting returns the number of processes blocked in Await.
func (c *Channel) Waiting() int { return c.waiters.Len() }

// Close marks the channel closed and wakes all waiters, which will observe
// ErrChannelClosed once the pending queue drains.
func (c *Channel) Close() {
	c.closed = true
	for c.waiters.Len() > 0 {
		c.sch.Unblock(c.waiters.Pop())
	}
}
