// Package ipc provides the base-level interprocess communication facility of
// the redesigned kernel: event channels carrying wakeups (and optionally
// small event messages) between processes.
//
// The paper's key property is that use of the new IPC facility "can be
// controlled with the standard memory protection mechanisms of the kernel":
// an event channel is materialized in a segment, and the right to signal or
// await it is exactly the right to write or read that segment. The Guard
// hook lets the kernel layer enforce that identification; the mechanism here
// stays policy-free.
package ipc

import (
	"errors"
	"fmt"

	"repro/internal/sched"
)

// Op distinguishes the two ways a process can use a channel.
type Op int

// Channel operations, for Guard decisions.
const (
	// OpSignal requires write access to the channel's segment.
	OpSignal Op = iota
	// OpAwait requires read access to the channel's segment.
	OpAwait
)

func (o Op) String() string {
	if o == OpSignal {
		return "signal"
	}
	return "await"
}

// Guard authorizes an operation on a channel for a process. The kernel
// installs a guard that maps OpSignal to a write-access check and OpAwait to
// a read-access check on the segment holding the channel.
type Guard func(op Op, p *sched.Process) error

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
	guard   Guard
	pending sched.Queue[Event]
	waiters sched.Queue[*sched.Process]
	closed  bool
	// awaitReason is the block reason Await reports, built once.
	awaitReason string
}

// NewChannel creates an event channel. A nil guard permits every use (the
// unprotected configuration).
func NewChannel(name string, sch *sched.Scheduler, guard Guard) *Channel {
	return &Channel{Name: name, sch: sch, guard: guard, awaitReason: "await " + name}
}

// Signal appends an event and wakes the first waiter, if any. It may be
// called from any process (subject to the guard) or from interrupt context
// (with p nil and a nil-process-tolerant guard).
func (c *Channel) Signal(p *sched.Process, ev Event) error {
	if c.closed {
		return ErrChannelClosed
	}
	if c.guard != nil {
		if err := c.guard(OpSignal, p); err != nil {
			return fmt.Errorf("ipc: signal on %q denied: %w", c.Name, err)
		}
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
	if c.guard != nil {
		if err := c.guard(OpAwait, pc.Process()); err != nil {
			return Event{}, fmt.Errorf("ipc: await on %q denied: %w", c.Name, err)
		}
	}
	for c.Pending() == 0 {
		if c.closed {
			return Event{}, ErrChannelClosed
		}
		c.waiters.Push(pc.Process())
		pc.Block(c.awaitReason)
	}
	return c.pending.Pop(), nil
}

// TryAwait removes and returns a pending event without blocking.
func (c *Channel) TryAwait(pc *sched.ProcCtx) (Event, bool, error) {
	if c.guard != nil {
		if err := c.guard(OpAwait, pc.Process()); err != nil {
			return Event{}, false, fmt.Errorf("ipc: await on %q denied: %w", c.Name, err)
		}
	}
	if c.Pending() == 0 {
		return Event{}, false, nil
	}
	return c.pending.Pop(), true, nil
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
