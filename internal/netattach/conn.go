package netattach

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mls"
	"repro/internal/sched"
	"repro/internal/trace"
)

// State is a connection's position in the attachment lifecycle.
type State int

// The lifecycle: accept → authenticate → attached session → drain → close.
const (
	// StatePending: dialed, waiting for the listener process to accept.
	StatePending State = iota
	// StateAttached: authenticated, attached, serving traffic.
	StateAttached
	// StateDraining: closing; queued input is still being delivered.
	StateDraining
	// StateClosed: detached and removed from the connection table.
	StateClosed
	// StateFailed: authentication or attachment failed.
	StateFailed
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateAttached:
		return "attached"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Conn is one entry in the connection table.
type Conn struct {
	fe *Frontend
	id uint64

	person, project string
	password        string // cleared once the listener consumes it
	level           mls.Level

	state State
	err   error

	proc *core.Proc
	dev  uint64              // kernel attachment id
	out  sched.Queue[uint64] // replies back to the client, oldest first

	dialedAt  int64
	attachLat int64

	queued   bool // in the multiplexer's run queue
	shedding bool // slow-reader shedding engaged (hysteresis)

	sum uint64 // OpSum accumulator

	// processed is this session's share of net.processed: migration
	// carries it and close reports it.
	processed int64
}

// ID returns the connection's table id.
func (c *Conn) ID() uint64 { return c.id }

// State returns the connection's lifecycle state.
func (c *Conn) State() State { return c.state }

// Err returns why the connection failed (nil otherwise).
func (c *Conn) Err() error { return c.err }

// AttachLatency returns the virtual cycles from dial to attached (zero
// until attached).
func (c *Conn) AttachLatency() int64 { return c.attachLat }

// Proc returns the connection's logged-in process (nil until attached).
func (c *Conn) Proc() *core.Proc { return c.proc }

// Device returns the kernel attachment id (zero until attached).
func (c *Conn) Device() uint64 { return c.dev }

// fail marks the connection failed.
func (c *Conn) fail(err error) {
	c.state = StateFailed
	c.err = err
	c.queued = false
}

// Send submits one request from the client. Backpressure is explicit: when
// the connection's input queue stands at or above the high-water mark the
// send is refused with ErrThrottled (and counted), never silently dropped
// by the front-end. On the legacy path the fixed circular buffer can still
// overwrite — that loss is counted by the kernel buffer itself.
func (c *Conn) Send(op Op, payload uint64) error {
	fe := c.fe
	if fe.closed {
		return ErrFrontendClosed
	}
	if c.state != StateAttached {
		return fmt.Errorf("%w: connection %d is %v", ErrNotAttached, c.id, c.state)
	}
	q, err := fe.k.DeviceQueue(c.dev)
	if err != nil {
		return err
	}
	if q >= HighWater {
		fe.nm.throttled.Inc()
		return fmt.Errorf("%w: connection %d input queue at %d", ErrThrottled, c.id, q)
	}
	if err := fe.k.InjectInput(c.dev, Encode(op, payload)); err != nil {
		return err
	}
	if q+1 > fe.peakInput {
		fe.peakInput = q + 1
	}
	fe.markRunnable(c)
	return nil
}

// Recv runs the system until quiescent, then removes and returns the oldest
// undelivered reply. ok is false when no reply is pending.
func (c *Conn) Recv() (uint64, bool, error) {
	if err := c.readable(); err != nil {
		return 0, false, err
	}
	c.fe.pump()
	return c.TryRecv()
}

// TryRecv is Recv without running the system first.
func (c *Conn) TryRecv() (uint64, bool, error) {
	if err := c.readable(); err != nil {
		return 0, false, err
	}
	if c.out.Len() == 0 {
		return 0, false, nil
	}
	return c.out.Pop(), true, nil
}

// readable refuses a reply read before the attach gate has succeeded or
// after close.
func (c *Conn) readable() error {
	if c.dev == 0 || c.state == StateClosed {
		return fmt.Errorf("%w: connection %d is %v", ErrNotAttached, c.id, c.state)
	}
	return nil
}

// Pending returns (input queued, replies queued).
func (c *Conn) Pending() (int, int) {
	fe := c.fe
	var in int
	if c.state == StateAttached || c.state == StateDraining {
		in, _ = fe.k.DeviceQueue(c.dev)
	}
	return in, c.out.Len()
}

// Drain runs the system until the connection's input queue is fully
// delivered.
func (c *Conn) Drain() error { return c.fe.drain(c) }

// Close drains queued input, detaches the connection through the kernel
// gate, counts what its input buffer lost, and removes it from the
// connection table.
func (c *Conn) Close() error {
	fe := c.fe
	switch c.state {
	case StateClosed:
		return nil
	case StatePending:
		// Never accepted: withdraw from the accept queue.
		fe.acceptq.Remove(c)
		c.state = StateClosed
		delete(fe.conns, c.id)
		return nil
	case StateFailed:
		c.state = StateClosed
		delete(fe.conns, c.id)
		return fe.endProcess(c)
	}
	c.state = StateDraining
	fe.emit(trace.Event{Name: "drain", Subject: c.id, Outcome: trace.ClassOK})
	if err := fe.drain(c); err != nil {
		return err
	}
	return fe.finishClose(c)
}
