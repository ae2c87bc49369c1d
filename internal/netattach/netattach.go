// Package netattach is the network attachment front-end: the serving layer
// that turns the paper's S5 consolidation — "a single network attachment
// path" in place of per-device drivers — into a multi-connection traffic
// path.
//
// The structure follows the paper's process architecture:
//
//   - A listener runs as a dedicated kernel process on its own virtual
//     processor, in the style of the redesign's permanently dedicated kernel
//     processes (pager, interrupt handlers). Connection arrivals reach it as
//     IPC wakeups over an event channel — arrival work is never done on a
//     borrowed user process.
//   - A connection table tracks each attachment through its lifecycle:
//     accept → authenticate → attached session → drain → close. The
//     listener authenticates through the answering service and attaches
//     through the stage's kernel gate (net_$attach at S5+, the legacy
//     per-device ios_ gates before).
//   - A session multiplexer drives attached sessions over a bounded pool of
//     worker processes scheduled on the kernel's virtual processors. Workers
//     are woken over a second event channel when connections become
//     runnable.
//
// Flow control is explicit and fully counted. Input observes high/low water
// marks: a sender above high water is refused (ErrThrottled), not silently
// shed. Replies to a slow reader are shed with hysteresis — shedding starts
// at the high-water mark and stops at the low-water mark — and every shed
// reply is counted. On the legacy path (stages before S5) the fixed
// circular buffers can still overwrite messages; that loss is counted by
// the buffers themselves and surfaces in Stats, demonstrating exactly the
// failure mode the consolidation removed.
//
// One goroutine at a time drives a front-end, as it drives the kernel
// under it (DESIGN.md, "One driver per kernel"); the traffic engines
// (internal/workload and internal/fleet) replay every connection from one
// goroutine, so every reply and every virtual cycle repeats run to run.
package netattach

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/iosys"
	"repro/internal/ipc"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mls"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Errors returned by the front-end.
var (
	ErrFrontendClosed = errors.New("netattach: front-end closed")
	ErrNotAttached    = errors.New("netattach: connection not attached")
	ErrThrottled      = errors.New("netattach: input above high-water mark")
	ErrTableFull      = errors.New("netattach: connection table full")
)

// LoginFunc authenticates a dialing principal and returns their logged-in
// process. The multics facade supplies the stage-appropriate path (the
// as_$login gate before S4, the ring-2 answering subsystem after).
type LoginFunc func(person, project, password string, level mls.Level) (*core.Proc, error)

// Config parameterizes the front-end.
type Config struct {
	// Workers is the multiplexer pool size.
	Workers int
	// HighWater/LowWater are the flow-control marks on per-connection
	// queues (messages). Input at or above HighWater refuses sends;
	// replies shed from HighWater down to LowWater.
	HighWater, LowWater int
	// MaxConns bounds the connection table. At S5+ it also scales the
	// private store backing the reply buffers.
	MaxConns int
}

// Front-end defaults.
const (
	DefaultWorkers   = 4
	DefaultHighWater = 64
	DefaultLowWater  = 16
	DefaultMaxConns  = 4096
	// legacyReplySlots is the reply ring capacity on the legacy path —
	// the same fixed-buffer regime as the legacy kernel drivers.
	legacyReplySlots = 16
	// acceptCycles is the listener's bookkeeping charge per accept.
	acceptCycles = 20
)

func (c *Config) setDefaults() error {
	if c.Workers == 0 {
		c.Workers = DefaultWorkers
	}
	if c.HighWater == 0 {
		c.HighWater = DefaultHighWater
	}
	if c.LowWater == 0 {
		c.LowWater = DefaultLowWater
	}
	if c.MaxConns == 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.Workers < 1 {
		return fmt.Errorf("netattach: %d workers", c.Workers)
	}
	if c.LowWater < 1 || c.HighWater <= c.LowWater {
		return fmt.Errorf("netattach: water marks %d/%d (need high > low >= 1)", c.HighWater, c.LowWater)
	}
	if c.MaxConns < 1 {
		return fmt.Errorf("netattach: %d max connections", c.MaxConns)
	}
	return nil
}

// Stats is a snapshot of the front-end's counters. Latencies and
// occupancies are in virtual cycles and messages respectively.
type Stats struct {
	// Accepted/Rejected count listener outcomes; Active is the current
	// table population (pending included).
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Active   int   `json:"active"`

	// Delivered counts messages read out of kernel buffers by workers;
	// Processed counts executed requests; Replies counts replies queued.
	Delivered int64 `json:"delivered"`
	Processed int64 `json:"processed"`
	Replies   int64 `json:"replies"`

	// ReplyDrops counts replies shed by flow control. Throttled counts
	// sends refused at the high-water mark. Both are explicit and exact.
	ReplyDrops int64 `json:"reply_drops"`
	Throttled  int64 `json:"throttled"`

	// InputLost counts request messages destroyed unread inside kernel
	// buffers (legacy circular buffers only; zero from S5 on). ReplyLost
	// is the same for the reply rings.
	InputLost int64 `json:"input_lost"`
	ReplyLost int64 `json:"reply_lost"`

	// PeakInput/PeakOutput are the highest per-connection queue depths
	// observed.
	PeakInput  int `json:"peak_input"`
	PeakOutput int `json:"peak_output"`

	// Stalls and Resets count injected connection faults absorbed by the
	// drain-and-requeue recovery path: the service pass backed off and the
	// connection was requeued with its input intact.
	Stalls int64 `json:"stalls"`
	Resets int64 `json:"resets"`

	// AttachP50/AttachP99 are attach-latency percentiles over all
	// accepted connections (dial to attached, virtual cycles).
	AttachP50 int64 `json:"attach_p50"`
	AttachP99 int64 `json:"attach_p99"`
}

// Frontend is the network attachment front-end over one kernel.
type Frontend struct {
	k     *core.Kernel
	svc   core.Services
	cfg   Config
	login LoginFunc
	sch   *sched.Scheduler

	arrivals *ipc.Channel // dial events -> listener wakeups
	work     *ipc.Channel // runnable connections -> worker wakeups

	conns   map[uint64]*Conn
	nextID  uint64
	acceptq []*Conn
	runq    []*Conn

	// outStore (S5+) is the private store behind the reply buffers.
	outStore   *mem.Store
	nextOutUID uint64

	attachLats []int64
	closed     bool

	// sink, when set, receives a copy of every lifecycle trace event the
	// front-end emits (the kernel's trace ring always gets them).
	sink trace.Sink

	// faults, when set, decides injected connection faults; see FaultPlane.
	faults FaultPlane

	// Running totals (closed connections fold in on finishClose).
	accepted, rejected               int64
	delivered, processed, replies    int64
	drops, throttled                 int64
	stalls, resets                   int64
	closedInputLost, closedReplyLost int64
	peakInput, peakOutput            int

	// nm publishes the same lifecycle counters into the kernel's unified
	// metrics registry (net.* names) as they happen.
	nm netMetrics
}

// netMetrics is the front-end's handle set into the kernel's unified
// metrics registry. resolve falls back to a private registry when the
// kernel has none, so the handles are always safe to use.
type netMetrics struct {
	accepted, rejected            *metrics.Counter
	delivered, processed, replies *metrics.Counter
	replyDrops, throttled         *metrics.Counter
	stalls, resets                *metrics.Counter
	inputLost, replyLost          *metrics.Counter
	active                        *metrics.Gauge
	attachLat                     *metrics.Histogram
}

func (nm *netMetrics) resolve(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.New()
	}
	nm.accepted = reg.Counter("net.accepted")
	nm.rejected = reg.Counter("net.rejected")
	nm.delivered = reg.Counter("net.delivered")
	nm.processed = reg.Counter("net.processed")
	nm.replies = reg.Counter("net.replies")
	nm.replyDrops = reg.Counter("net.reply_drops")
	nm.throttled = reg.Counter("net.throttled")
	nm.stalls = reg.Counter("net.stalls")
	nm.resets = reg.Counter("net.resets")
	nm.inputLost = reg.Counter("net.input_lost")
	nm.replyLost = reg.Counter("net.reply_lost")
	nm.active = reg.Gauge("net.active")
	nm.attachLat = reg.Histogram("net.attach_latency", []int64{50, 100, 200, 400, 800, 1600, 3200})
}

// New builds the front-end over k and starts its listener and worker
// processes. login supplies authentication; cfg zero-values select
// defaults.
func New(k *core.Kernel, login LoginFunc, cfg Config) (*Frontend, error) {
	if login == nil {
		return nil, errors.New("netattach: nil login function")
	}
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	svc := k.Services()
	fe := &Frontend{
		k:          k,
		svc:        svc,
		cfg:        cfg,
		login:      login,
		sch:        svc.Scheduler,
		conns:      make(map[uint64]*Conn),
		nextID:     1,
		nextOutUID: 1,
	}
	fe.nm.resolve(svc.Metrics)
	// A kernel built with a fault plan extends the plan to connections:
	// the front-end is the fault plane's netattach interposition point.
	if svc.Faults != nil {
		fe.faults = svc.Faults
	}
	if svc.Stage >= core.S5IOConsolidated {
		mc := mem.DefaultConfig()
		mc.CoreFrames = 2 * cfg.MaxConns
		if mc.CoreFrames < 512 {
			mc.CoreFrames = 512
		}
		mc.BulkBlocks = 256
		var err error
		fe.outStore, err = mem.NewStore(mc)
		if err != nil {
			return nil, fmt.Errorf("netattach: reply-buffer store: %w", err)
		}
	}
	fe.arrivals = ipc.NewChannel("netattach.arrivals", fe.sch, nil)
	fe.work = ipc.NewChannel("netattach.work", fe.sch, nil)

	lvp := fe.sch.AddVP("netattach.listener", true)
	if _, err := fe.sch.SpawnDedicated(lvp, "net_listener", fe.listenerBody); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		fe.sch.AddVP(fmt.Sprintf("netattach.wp%d", i), false)
		fe.sch.Spawn(fmt.Sprintf("net_worker_%d", i), fe.workerBody)
	}
	return fe, nil
}

// Kernel returns the kernel this front-end serves.
func (fe *Frontend) Kernel() *core.Kernel { return fe.k }

// FaultPlane decides injected connection faults; the deterministic
// implementation is the fault plane's injector (internal/faults). The
// front-end calls the methods from inside the simulation; a true return means the current service pass backs
// off and the connection is requeued with its input intact — the
// drain-and-requeue recovery path. Implementations must be
// deterministic per connection, never dependent on scheduling.
type FaultPlane interface {
	// ConnReset reports whether the connection's pending read is reset
	// mid-flight.
	ConnReset(conn uint64) bool
	// ConnStall reports whether the connection's service pass stalls.
	ConnStall(conn uint64) bool
}

// SetSink installs an additional observer for the front-end's lifecycle
// trace events; nil removes it. Events always reach the kernel's trace
// ring regardless. This is the uniform spine hookup shared with
// machine.Processor.SetSink and sched.Scheduler.SetSink.
func (fe *Frontend) SetSink(sink trace.Sink) {
	fe.sink = sink
}

// emit records one StageNet lifecycle event into the kernel-crossing
// trace spine and the optional sink.
func (fe *Frontend) emit(ev trace.Event) {
	ev.Stage = trace.StageNet
	fe.svc.Trace.Record(ev)
	if fe.sink != nil {
		fe.sink.Record(ev)
	}
}

// pump advances the simulation until quiescent.
func (fe *Frontend) pump() { fe.sch.Run(0) }

// DialAsync enters a connection into the table and signals the listener's
// arrival channel. The accept (authentication + attachment) happens on the
// listener process the next time the simulation runs; use Flush or Dial to
// drive it.
func (fe *Frontend) DialAsync(person, project, password string, level mls.Level) (*Conn, error) {
	if fe.closed {
		return nil, ErrFrontendClosed
	}
	if len(fe.conns) >= fe.cfg.MaxConns {
		return nil, fmt.Errorf("%w: %d connections", ErrTableFull, len(fe.conns))
	}
	c := &Conn{
		fe: fe, id: fe.nextID,
		person: person, project: project, password: password, level: level,
		state: StatePending, dialedAt: fe.svc.Clock.Now(),
	}
	fe.nextID++
	fe.conns[c.id] = c
	fe.nm.active.Set(int64(len(fe.conns)))
	fe.acceptq = append(fe.acceptq, c)
	if err := fe.arrivals.Signal(nil, ipc.Event{From: "netattach.dial", Data: c.id}); err != nil {
		delete(fe.conns, c.id)
		fe.nm.active.Set(int64(len(fe.conns)))
		fe.acceptq = fe.acceptq[:len(fe.acceptq)-1]
		return nil, err
	}
	return c, nil
}

// Dial is DialAsync plus running the system until the accept completes.
func (fe *Frontend) Dial(person, project, password string, level mls.Level) (*Conn, error) {
	c, err := fe.DialAsync(person, project, password, level)
	if err != nil {
		return nil, err
	}
	fe.pump()
	if c.state == StateFailed {
		_ = c.Close()
		return nil, c.err
	}
	if c.state != StateAttached {
		return nil, fmt.Errorf("netattach: connection %d stuck %v after accept", c.id, c.state)
	}
	return c, nil
}

// Flush runs the simulation until quiescent: accepts complete and queued
// input is delivered and processed.
func (fe *Frontend) Flush() {
	fe.pump()
}

// listenerBody is the dedicated listener kernel process: a simple loop over
// the arrival channel, exactly like the redesign's interrupt-handler
// processes.
func (fe *Frontend) listenerBody(pc *sched.ProcCtx) {
	for {
		if _, err := fe.arrivals.Await(pc); err != nil {
			return // channel closed: shutdown
		}
		if len(fe.acceptq) == 0 {
			continue // dial withdrawn before accept
		}
		c := fe.acceptq[0]
		fe.acceptq = fe.acceptq[1:]
		fe.accept(pc, c)
	}
}

// accept authenticates and attaches one pending connection, on the
// listener process.
func (fe *Frontend) accept(pc *sched.ProcCtx, c *Conn) {
	pc.Consume(acceptCycles)
	proc, err := fe.login(c.person, c.project, c.password, c.level)
	c.password = ""
	if err != nil {
		fe.reject(c, err)
		return
	}
	c.proc = proc
	out, err := proc.CallGate(fe.attachGate())
	if err != nil {
		fe.reject(c, fmt.Errorf("netattach: attach gate: %w", err))
		return
	}
	c.dev = out[0]
	if fe.outStore != nil {
		uid := fe.nextOutUID
		fe.nextOutUID++
		c.out, err = iosys.NewInfiniteBuffer(fe.outStore, uid)
		if err != nil {
			fe.reject(c, fmt.Errorf("netattach: reply buffer: %w", err))
			return
		}
		c.outUID = uid
	} else {
		c.out, err = iosys.NewCircularBuffer(legacyReplySlots)
		if err != nil {
			fe.reject(c, err)
			return
		}
	}
	c.state = StateAttached
	c.attachLat = pc.Now() - c.dialedAt
	fe.attachLats = append(fe.attachLats, c.attachLat)
	fe.accepted++
	fe.nm.accepted.Inc()
	fe.nm.attachLat.Observe(c.attachLat)
	fe.emit(trace.Event{Name: "attach", Subject: c.id, Cost: c.attachLat, Outcome: trace.ClassOK})
}

// reject records a failed accept.
func (fe *Frontend) reject(c *Conn, err error) {
	fe.rejected++
	fe.nm.rejected.Inc()
	c.fail(err)
	fe.emit(trace.Event{Name: "reject", Subject: c.id, Outcome: gate.Classify(err), Detail: err.Error()})
}

// markRunnable queues the connection for the worker pool (idempotent) and
// wakes a worker.
func (fe *Frontend) markRunnable(c *Conn) {
	if c.queued || (c.state != StateAttached && c.state != StateDraining) {
		return
	}
	c.queued = true
	fe.runq = append(fe.runq, c)
	_ = fe.work.Signal(nil, ipc.Event{From: "netattach.mux", Data: c.id})
}

// popRunnable removes the next serviceable connection from the run queue.
func (fe *Frontend) popRunnable() *Conn {
	for len(fe.runq) > 0 {
		c := fe.runq[0]
		fe.runq = fe.runq[1:]
		if c.state == StateAttached || c.state == StateDraining {
			return c
		}
		c.queued = false
	}
	return nil
}

// workerBody is one multiplexer worker: a layer-2 process that drains
// runnable connections whenever the work channel wakes it.
func (fe *Frontend) workerBody(pc *sched.ProcCtx) {
	for {
		if _, err := fe.work.Await(pc); err != nil {
			return
		}
		for {
			c := fe.popRunnable()
			if c == nil {
				break
			}
			fe.service(pc, c)
			c.queued = false
			// Input injected while we were busy re-queues the connection.
			if q, err := fe.k.DeviceQueue(c.dev); err == nil && q > 0 {
				fe.markRunnable(c)
			}
			pc.Yield() // share the pool between connections
		}
	}
}

// resetPenalty and stallDelay are the virtual-time costs of the two
// injected connection faults: a reset charges CPU for the re-attach
// bookkeeping, a stall parks the worker before the connection is
// requeued. Neither consumes input, so recovery is lossless.
const (
	resetPenalty = 16
	stallDelay   = 64
)

// service reads the connection's queued input through the stage's read
// gate and executes each request. When a fault plane is installed, each
// read attempt may be reset or stalled: the pass returns early without
// consuming anything and workerBody requeues the connection while input
// remains — drain-and-requeue, never data loss. (The fault plane itself
// emits the injected-fault trace events; the front-end only counts.)
func (fe *Frontend) service(pc *sched.ProcCtx, c *Conn) {
	for c.state == StateAttached || c.state == StateDraining {
		if fp := fe.faults; fp != nil {
			if fp.ConnReset(c.id) {
				fe.resets++
				fe.nm.resets.Inc()
				pc.Consume(resetPenalty)
				return
			}
			if fp.ConnStall(c.id) {
				fe.stalls++
				fe.nm.stalls.Inc()
				pc.Sleep(stallDelay)
				return
			}
		}
		out, err := c.proc.CallGate(fe.readGate(), c.dev)
		if err != nil {
			c.fail(fmt.Errorf("netattach: read gate: %w", err))
			return
		}
		if out[1] == 0 {
			return // input drained
		}
		c.delivered++
		fe.delivered++
		fe.nm.delivered.Inc()
		fe.execute(pc, c, out[0])
	}
}

// execute runs one request and queues its reply (subject to shedding).
func (fe *Frontend) execute(pc *sched.ProcCtx, c *Conn, word uint64) {
	op, payload := Decode(word)
	var reply uint64
	switch op {
	case OpEcho:
		pc.Consume(2)
		reply = payload
	case OpSum:
		pc.Consume(2)
		c.sum += payload
		reply = c.sum
	case OpSpin:
		spin := int64(payload)
		if spin > MaxSpin {
			spin = MaxSpin
		}
		pc.Consume(spin)
		reply = payload
	case OpClock:
		out, err := c.proc.CallGate("hcs_$total_cpu_time")
		if err != nil {
			c.fail(err)
			return
		}
		reply = out[0]
	case OpLevel:
		out, err := c.proc.CallGate("hcs_$get_authorization")
		if err != nil {
			c.fail(err)
			return
		}
		reply = out[0]
	default:
		// Unknown op: processed, no reply.
		pc.Consume(1)
		c.processed++
		fe.processed++
		fe.nm.processed.Inc()
		return
	}
	c.processed++
	fe.processed++
	fe.nm.processed.Inc()
	fe.emit(trace.Event{Name: "request", Subject: c.id, Arg: word, Outcome: trace.ClassOK})
	fe.enqueueReply(c, reply)
}

// enqueueReply queues a reply with slow-reader shedding: once the reply
// queue reaches the high-water mark, replies are shed (and counted) until
// the reader drains it to the low-water mark.
func (fe *Frontend) enqueueReply(c *Conn, v uint64) {
	n := c.out.Len()
	if c.shedding && n <= fe.cfg.LowWater {
		c.shedding = false
	}
	if !c.shedding && n >= fe.cfg.HighWater {
		c.shedding = true
	}
	if c.shedding {
		c.drops++
		fe.drops++
		fe.nm.replyDrops.Inc()
		return
	}
	c.replySeq++
	if err := c.out.Put(iosys.Message{Seq: c.replySeq, Data: v}); err != nil {
		// Refused by storage: still a counted drop, never silent.
		c.drops++
		fe.drops++
		fe.nm.replyDrops.Inc()
		return
	}
	c.replies++
	fe.replies++
	fe.nm.replies.Inc()
	if n+1 > fe.peakOutput {
		fe.peakOutput = n + 1
	}
}

// drain runs the system until c's input queue is empty.
func (fe *Frontend) drain(c *Conn) error {
	for {
		if c.state != StateAttached && c.state != StateDraining {
			return nil // failed or closed along the way
		}
		q, err := fe.k.DeviceQueue(c.dev)
		if err != nil {
			return err
		}
		if q == 0 && !c.queued {
			return nil
		}
		fe.markRunnable(c)
		fe.pump()
	}
}

// finishClose detaches c and folds its accounting into the front-end
// totals. Input must already be drained.
func (fe *Frontend) finishClose(c *Conn) error {
	if c.state == StateAttached || c.state == StateDraining {
		lost, err := fe.k.DeviceLost(c.dev)
		if err == nil {
			fe.closedInputLost += lost
			fe.nm.inputLost.Add(lost)
		}
		if _, err := c.proc.CallGate(fe.detachGate(), c.dev); err != nil {
			return fmt.Errorf("netattach: detach gate: %w", err)
		}
	}
	if c.out != nil {
		fe.closedReplyLost += c.out.Lost()
		fe.nm.replyLost.Add(c.out.Lost())
		if c.outUID != 0 {
			_ = fe.outStore.DeleteSegment(c.outUID)
		}
		c.out = nil
	}
	c.state = StateClosed
	delete(fe.conns, c.id)
	fe.nm.active.Set(int64(len(fe.conns)))
	fe.emit(trace.Event{Name: "close", Subject: c.id, Arg: uint64(c.processed), Outcome: trace.ClassOK})
	return nil
}

// Close drains and closes every connection, shuts the listener and worker
// processes down, and refuses further dials.
func (fe *Frontend) Close() error {
	if fe.closed {
		return nil
	}
	fe.closed = true
	var firstErr error
	for _, c := range fe.connsByID() {
		switch c.state {
		case StateAttached, StateDraining:
			c.state = StateDraining
			fe.emit(trace.Event{Name: "drain", Subject: c.id, Outcome: trace.ClassOK})
			if err := fe.drain(c); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := fe.finishClose(c); err != nil && firstErr == nil {
				firstErr = err
			}
		default:
			c.state = StateClosed
			delete(fe.conns, c.id)
		}
	}
	fe.acceptq = nil
	fe.arrivals.Close()
	fe.work.Close()
	fe.pump() // daemons observe the closed channels and exit
	return firstErr
}

// connsByID returns the table's connections in id order (deterministic
// iteration over the map).
func (fe *Frontend) connsByID() []*Conn {
	out := make([]*Conn, 0, len(fe.conns))
	for _, c := range fe.conns {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Stats snapshots the front-end counters, including loss still sitting in
// open connections' buffers.
func (fe *Frontend) Stats() Stats {
	st := Stats{
		Accepted: fe.accepted, Rejected: fe.rejected, Active: len(fe.conns),
		Delivered: fe.delivered, Processed: fe.processed, Replies: fe.replies,
		ReplyDrops: fe.drops, Throttled: fe.throttled,
		Stalls: fe.stalls, Resets: fe.resets,
		InputLost: fe.closedInputLost, ReplyLost: fe.closedReplyLost,
		PeakInput: fe.peakInput, PeakOutput: fe.peakOutput,
	}
	for _, c := range fe.connsByID() {
		if c.state == StateAttached || c.state == StateDraining {
			if lost, err := fe.k.DeviceLost(c.dev); err == nil {
				st.InputLost += lost
			}
		}
		if c.out != nil {
			st.ReplyLost += c.out.Lost()
		}
	}
	if len(fe.attachLats) > 0 {
		lats := append([]int64(nil), fe.attachLats...)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		st.AttachP50 = lats[(len(lats)-1)*50/100]
		st.AttachP99 = lats[(len(lats)-1)*99/100]
	}
	return st
}

// ReplyPages reports how many pages the reply buffers currently hold in
// the private store (S5+ only; zero on the legacy path) — the cost side of
// the infinite-buffer strategy.
func (fe *Frontend) ReplyPages() int {
	if fe.outStore == nil {
		return 0
	}
	total := 0
	for _, c := range fe.connsByID() {
		if ib, ok := c.out.(*iosys.InfiniteBuffer); ok {
			total += ib.PagesUsed()
		}
	}
	return total
}

// Gate names for the stage's attachment path.
func (fe *Frontend) attachGate() string {
	if fe.svc.Stage >= core.S5IOConsolidated {
		return "net_$attach"
	}
	return "ios_$tty_attach"
}

func (fe *Frontend) readGate() string {
	if fe.svc.Stage >= core.S5IOConsolidated {
		return "net_$read"
	}
	return "ios_$tty_read"
}

func (fe *Frontend) detachGate() string {
	if fe.svc.Stage >= core.S5IOConsolidated {
		return "net_$detach"
	}
	return "ios_$tty_detach"
}
