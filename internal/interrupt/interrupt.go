// Package interrupt implements the system interrupt interceptor both ways
// the paper contrasts:
//
// The old style (BorrowedInterceptor) forces each interrupt handler "to
// inhabit whatever user process was running when the interrupt occurred":
// the handler runs immediately, in borrowed context, stealing cycles from
// the running process. It cannot block, cannot use the standard IPC
// facility, and must coordinate through ad-hoc shared state.
//
// The new style (ProcessInterceptor) assigns each interrupt source "its own
// process in which to execute", so the interceptor "will simply turn each
// interrupt into a wakeup of the corresponding process". Handlers become
// ordinary processes that coordinate with standard IPC.
package interrupt

import (
	"fmt"

	"repro/internal/ipc"
	"repro/internal/sched"
)

// Event is one interrupt occurrence.
type Event struct {
	Source string
	Data   uint64
	At     int64
}

// Stats compares the two interceptor styles.
type Stats struct {
	// Raised counts interrupts delivered to the interceptor.
	Raised int64
	// Handled counts handler executions completed.
	Handled int64
	// StolenCycles is CPU time taken from whatever process was running
	// (borrowed style only).
	StolenCycles int64
	// TotalLatency sums raise-to-handled virtual time.
	TotalLatency int64
	// BlockedAttempts counts handler attempts to use blocking operations
	// from borrowed context (forbidden; the old design's key constraint).
	BlockedAttempts int64
}

// Interceptor is the common interface: devices raise interrupts, the
// interceptor gets them to handler logic.
type Interceptor interface {
	// Raise delivers an interrupt from source. It is called from device
	// completion events (timer context), never from process context.
	Raise(source string, data uint64)
	// Stats returns the accumulated counters.
	Stats() Stats
}

// BorrowedHandler is handler logic for the old style. It runs in borrowed
// context: the cycles it reports consuming are stolen from the running
// process, and it has no process identity of its own. The tryBlock
// callback models an attempt to use a blocking facility; it always fails
// and is counted.
type BorrowedHandler func(ev Event, tryBlock func() error) (cycles int64)

// BorrowedInterceptor is the old design.
type BorrowedInterceptor struct {
	sch      *sched.Scheduler
	handlers map[string]BorrowedHandler
	st       Stats
}

// NewBorrowedInterceptor returns the old-style interceptor.
func NewBorrowedInterceptor(sch *sched.Scheduler) *BorrowedInterceptor {
	return &BorrowedInterceptor{sch: sch, handlers: make(map[string]BorrowedHandler)}
}

// Register installs the handler for source.
func (b *BorrowedInterceptor) Register(source string, h BorrowedHandler) error {
	if _, dup := b.handlers[source]; dup {
		return fmt.Errorf("interrupt: handler for %q already registered", source)
	}
	b.handlers[source] = h
	return nil
}

// Raise implements Interceptor: the handler runs right now, in borrowed
// context, advancing the clock (stealing time from whoever was running).
func (b *BorrowedInterceptor) Raise(source string, data uint64) {
	b.st.Raised++
	h, ok := b.handlers[source]
	if !ok {
		return
	}
	start := b.sch.Clock.Now()
	cycles := h(Event{Source: source, Data: data, At: start}, func() error {
		b.st.BlockedAttempts++
		return fmt.Errorf("interrupt: cannot block in borrowed interrupt context")
	})
	if cycles > 0 {
		b.sch.Clock.Advance(cycles)
		b.st.StolenCycles += cycles
	}
	b.st.Handled++
	b.st.TotalLatency += b.sch.Clock.Now() - start
}

// Stats implements Interceptor.
func (b *BorrowedInterceptor) Stats() Stats { return b.st }

// ProcessHandler is handler logic for the new style: an ordinary process
// body that receives events from its own channel and may block freely.
type ProcessHandler func(pc *sched.ProcCtx, ev Event)

// ProcessInterceptor is the new design: one dedicated process and event
// channel per interrupt source.
type ProcessInterceptor struct {
	sch     *sched.Scheduler
	sources map[string]*sourceQueue
	st      Stats
}

// sourceQueue is one registered interrupt source: the event channel its
// handler process awaits, and the raise times of the interrupts it has
// not yet handled, oldest first, for latency accounting.
type sourceQueue struct {
	ch       *ipc.Channel
	raisedAt sched.Queue[int64]
}

// NewProcessInterceptor returns the new-style interceptor.
func NewProcessInterceptor(sch *sched.Scheduler) *ProcessInterceptor {
	return &ProcessInterceptor{sch: sch, sources: make(map[string]*sourceQueue)}
}

// Register creates the dedicated virtual processor, process, and event
// channel for source, with h as the handler body.
func (p *ProcessInterceptor) Register(source string, h ProcessHandler) error {
	if _, dup := p.sources[source]; dup {
		return fmt.Errorf("interrupt: handler for %q already registered", source)
	}
	src := &sourceQueue{ch: ipc.NewChannel("int."+source, p.sch)}
	p.sources[source] = src
	vp := p.sch.AddVP("vp.int."+source, true)
	_, err := p.sch.SpawnDedicated(vp, "int-handler."+source, func(pc *sched.ProcCtx) {
		for {
			ev, err := src.ch.Await(pc)
			if err != nil {
				return
			}
			h(pc, Event{Source: source, Data: ev.Data, At: ev.At})
			p.st.Handled++
			if src.raisedAt.Len() > 0 {
				p.st.TotalLatency += pc.Now() - src.raisedAt.Pop()
			}
		}
	})
	return err
}

// Raise implements Interceptor: the interrupt becomes a wakeup — nothing
// else happens in interrupt context.
func (p *ProcessInterceptor) Raise(source string, data uint64) {
	p.st.Raised++
	src, ok := p.sources[source]
	if !ok {
		return
	}
	src.raisedAt.Push(p.sch.Clock.Now())
	// Signal with a nil process: device context has no process identity.
	_ = src.ch.Signal(nil, ipc.Event{From: source, Data: data})
}

// Stats implements Interceptor.
func (p *ProcessInterceptor) Stats() Stats { return p.st }

// Channel exposes the event channel of source so handler processes can
// coordinate with other processes over standard IPC (the simplification the
// paper highlights).
func (p *ProcessInterceptor) Channel(source string) (*ipc.Channel, bool) {
	src, ok := p.sources[source]
	if !ok {
		return nil, false
	}
	return src.ch, true
}
