package netattach

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/iosys"
	"repro/internal/mls"
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

	proc   *core.Proc
	dev    uint64       // kernel attachment id
	out    iosys.Buffer // reply queue back to the client
	outUID uint64       // segment behind out (S5+ only)

	dialedAt  int64
	attachLat int64

	queued   bool // in the multiplexer's run queue
	shedding bool // slow-reader shedding engaged (hysteresis)

	sum      uint64 // OpSum accumulator
	replySeq uint64

	delivered, processed, replies, drops, throttled int64
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
	if q >= fe.cfg.HighWater {
		c.throttled++
		fe.throttled++
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
	fe := c.fe
	if c.out == nil {
		return 0, false, fmt.Errorf("%w: connection %d is %v", ErrNotAttached, c.id, c.state)
	}
	fe.pump()
	m, ok, err := c.out.Get()
	return m.Data, ok, err
}

// TryRecv is Recv without running the system first.
func (c *Conn) TryRecv() (uint64, bool, error) {
	if c.out == nil {
		return 0, false, fmt.Errorf("%w: connection %d is %v", ErrNotAttached, c.id, c.state)
	}
	m, ok, err := c.out.Get()
	return m.Data, ok, err
}

// Pending returns (input queued, replies queued).
func (c *Conn) Pending() (int, int) {
	fe := c.fe
	var in int
	if c.state == StateAttached || c.state == StateDraining {
		in, _ = fe.k.DeviceQueue(c.dev)
	}
	var out int
	if c.out != nil {
		out = c.out.Len()
	}
	return in, out
}

// Drain runs the system until the connection's input queue is fully
// delivered.
func (c *Conn) Drain() error { return c.fe.drain(c) }

// Close drains queued input, detaches the connection through the kernel
// gate, folds its counters into the front-end totals, and removes it from
// the connection table.
func (c *Conn) Close() error {
	fe := c.fe
	switch c.state {
	case StateClosed:
		return nil
	case StatePending:
		// Never accepted: withdraw from the accept queue.
		for i, pc := range fe.acceptq {
			if pc == c {
				fe.acceptq = append(fe.acceptq[:i], fe.acceptq[i+1:]...)
				break
			}
		}
		c.state = StateClosed
		delete(fe.conns, c.id)
		return nil
	case StateFailed:
		c.state = StateClosed
		delete(fe.conns, c.id)
		return nil
	}
	c.state = StateDraining
	fe.emit(trace.Event{Name: "drain", Subject: c.id, Outcome: trace.ClassOK})
	if err := fe.drain(c); err != nil {
		return err
	}
	return fe.finishClose(c)
}
