// Package sched implements the paper's two-layer process structure as a
// deterministic, cooperatively scheduled discrete-event simulation.
//
// Layer 1 multiplexes the physical processor onto a small, fixed set of
// virtual processors. Because the number of virtual processors is fixed,
// this layer has no dependence on virtual-memory management — exactly the
// property the paper's redesign needs, since several virtual processors are
// permanently dedicated to the kernel processes that *implement* the virtual
// memory (the core-freeing and bulk-store-freeing processes) and to
// interrupt-handler processes.
//
// Layer 2 multiplexes the remaining (pooled) virtual processors onto any
// number of full Multics processes.
//
// All time is virtual: simulated code charges cycles to the shared
// machine.Clock and blocks/wakes through explicit scheduler operations, so
// every run is reproducible.
package sched

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"slices"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ProcState is the scheduling state of a simulated process.
type ProcState int

// Process states.
const (
	StateReady ProcState = iota
	StateRunning
	StateBlocked
	StateDone
)

func (s ProcState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ProcFunc is the body of a simulated process.
type ProcFunc func(pc *ProcCtx)

// errKilled is panicked inside a simulated process when Shutdown stops
// its coroutine; the coroutine's body wrapper recovers it.
var errKilled = errors.New("sched: process killed by scheduler shutdown")

// BodyPanic is the value a process body's panic is re-raised with at the
// caller of Run or Step. The coroutine's frames are gone by then, so it
// carries the stack taken inside the body, where the panic happened.
type BodyPanic struct {
	// Process names the process whose body panicked.
	Process string
	// Value is the body's own panic value.
	Value any
	// Stack is debug.Stack() taken in the body's coroutine as the panic
	// unwound it; it names the panicking function.
	Stack []byte
}

// Error reports the original value and the body's stack, which is what a
// crash prints for an unrecovered BodyPanic.
func (b *BodyPanic) Error() string {
	return fmt.Sprintf("%v [in process %q]\n\n%s", b.Value, b.Process, b.Stack)
}

// VP is a layer-1 virtual processor. Dedicated VPs are permanently bound to
// one kernel process; pooled VPs are multiplexed among Multics processes by
// layer 2.
type VP struct {
	Name      string
	Dedicated bool
	// idx is the VP's index in the scheduler's VP list, where the
	// dedicated-VP scan's hand points.
	idx int
	// current is the process currently bound to this VP (nil if idle).
	current *Process
	// Busy cycles accumulated, for utilization reporting.
	busyCycles int64
}

// Current returns the process bound to the VP, or nil.
func (v *VP) Current() *Process { return v.current }

// BusyCycles returns the cycles this VP has executed.
func (v *VP) BusyCycles() int64 { return v.busyCycles }

// Process is a simulated process (layer 2), or a kernel process permanently
// bound to a dedicated VP (layer 1).
type Process struct {
	Name  string
	state ProcState
	vp    *VP // non-nil while bound to a virtual processor

	// next resumes the process's coroutine until it yields, and reports
	// false once the body has returned; stop kills the coroutine.
	next func() (struct{}, bool)
	stop func()

	blockReason string
	// sleepFor is the length of the Sleep the process is blocked in, or 0;
	// BlockReason formats it only when asked.
	sleepFor int64
	// Bindings counts how many times layer 2 bound this process to a VP.
	Bindings int64
	// CPUCycles is the total cycles this process has consumed.
	CPUCycles int64
	// since is the virtual time the process's current dispatch began.
	since int64
}

// State returns the process's scheduling state.
func (p *Process) State() ProcState { return p.state }

// BlockReason returns why the process is blocked (empty if not blocked).
func (p *Process) BlockReason() string {
	if p.sleepFor > 0 {
		return fmt.Sprintf("sleep %d", p.sleepFor)
	}
	return p.blockReason
}

// timer is a pending wakeup: at virtual time at it unblocks proc or calls
// fire. seq numbers timers in the order they were set, so timers due at
// the same time fire in that order.
type timer struct {
	at   int64
	seq  int64
	proc *Process
	fire func()
}

func (t *timer) before(u *timer) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// timerHeap is a binary min-heap of timers ordered by (at, seq). It holds
// them by value, so setting a timer allocates nothing once the array has
// grown.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	q := append(*h, t)
	for i := len(q) - 1; i > 0; {
		up := (i - 1) / 2
		if !q[i].before(&q[up]) {
			break
		}
		q[i], q[up] = q[up], q[i]
		i = up
	}
	*h = q
}

// pop removes and returns the earliest timer. The heap must not be empty.
func (h *timerHeap) pop() timer {
	q := *h
	t := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = timer{} // keep no process or closure alive
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].before(&q[m]) {
			m = r
		}
		if !q[m].before(&q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return t
}

// Scheduler drives the simulation: a single physical processor is
// multiplexed across virtual processors (layer 1), and Multics processes are
// multiplexed across the pooled virtual processors (layer 2).
type Scheduler struct {
	Clock *machine.Clock

	vps    []*VP
	pooled []*VP

	ready Queue[*Process] // layer-2 ready queue
	// procs holds the live processes in spawn order: a process leaves
	// when its body returns or Shutdown stops it.
	procs  []*Process
	timers timerHeap
	seq    int64
	// dedHand rotates the dedicated-VP scan so no dedicated process can
	// starve another by staying ready.
	dedHand int
	// until is the limit of the Run whose loop dispatched the running
	// process (math.MaxInt64 for none), or 0 while a bare Step
	// dispatches: a Sleep ends in place only if it wakes before until.
	until int64

	// sink, when set, receives one trace.Event per dispatch — the uniform
	// spine hookup shared with machine, netattach, and faults.
	sink trace.Sink
	// mDispatches/mDispatchCycles count dispatches and the vcycles they
	// consumed as sched.dispatches and sched.dispatch_cycles. Dispatch
	// counts depend on how often callers pump the scheduler (e.g.
	// netattach Flush cadence); the traffic engines replay from one
	// goroutine in a fixed order, so they repeat exactly across replays
	// and E16 compares the whole registry, sched.* included.
	mDispatches     *metrics.Counter
	mDispatchCycles *metrics.Counter
	shutdown        bool
}

// SetSink directs dispatch observation at sk: every dispatch is recorded
// as a trace.Event with Stage trace.StageSched, the process name, the
// elapsed vcycles as Cost, and the dispatch-end virtual cycle as At. A
// nil sink disables it.
func (s *Scheduler) SetSink(sk trace.Sink) { s.sink = sk }

// New returns a scheduler over the given clock that counts its
// dispatches into reg.
func New(clock *machine.Clock, reg *metrics.Registry) *Scheduler {
	return &Scheduler{
		Clock:           clock,
		mDispatches:     reg.Counter("sched.dispatches"),
		mDispatchCycles: reg.Counter("sched.dispatch_cycles"),
	}
}

// AddVP creates a virtual processor. Dedicated VPs must be claimed by
// SpawnDedicated; pooled VPs serve the layer-2 ready queue.
func (s *Scheduler) AddVP(name string, dedicated bool) *VP {
	vp := &VP{Name: name, Dedicated: dedicated, idx: len(s.vps)}
	s.vps = append(s.vps, vp)
	if !dedicated {
		s.pooled = append(s.pooled, vp)
	}
	return vp
}

// VPs returns all virtual processors.
func (s *Scheduler) VPs() []*VP { return s.vps }

// Processes returns a copy of the live processes, in spawn order: those
// whose bodies have not returned and that Shutdown has not stopped. It
// is a copy because the table changes in place as processes finish.
func (s *Scheduler) Processes() []*Process { return slices.Clone(s.procs) }

// newProcess runs body as an iter.Pull coroutine, so one process switch is
// one coroutine switch and only one of the scheduler and its processes
// runs at a time, by construction. dispatch calls next, which reports
// false once the body has returned. stop runs nothing for a process that
// never started; for a suspended one it makes yield return false, so the
// body unwinds through errKilled and its deferred calls still run. Any
// other panic in a body reaches the caller of Run, on the driver's
// goroutine, as a *BodyPanic that keeps the body's stack. A body must
// never call runtime.Goexit: iter.Pull passes it on to the driver too.
func (s *Scheduler) newProcess(name string, body ProcFunc) *Process {
	p := &Process{Name: name, state: StateReady}
	s.procs = append(s.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != errKilled {
				panic(&BodyPanic{Process: name, Value: r, Stack: debug.Stack()})
			}
		}()
		body(&ProcCtx{s: s, p: p, yield: yield})
	})
	return p
}

// finish marks p done and releases its virtual processor.
func (p *Process) finish() {
	p.state = StateDone
	if p.vp != nil {
		p.vp.current = nil
		p.vp = nil
	}
}

// drop removes p, whose body has returned, from the process table.
func (s *Scheduler) drop(p *Process) {
	if i := slices.Index(s.procs, p); i >= 0 {
		s.procs = slices.Delete(s.procs, i, i+1)
	}
}

// SpawnDedicated creates a kernel process permanently bound to the dedicated
// virtual processor vp. The process never migrates and never competes with
// layer-2 processes for a VP.
func (s *Scheduler) SpawnDedicated(vp *VP, name string, body ProcFunc) (*Process, error) {
	if !vp.Dedicated {
		return nil, fmt.Errorf("sched: VP %q is not dedicated", vp.Name)
	}
	if vp.current != nil {
		return nil, fmt.Errorf("sched: dedicated VP %q already bound to %q", vp.Name, vp.current.Name)
	}
	p := s.newProcess(name, body)
	p.vp = vp
	vp.current = p
	p.Bindings = 1
	return p, nil
}

// Spawn creates a layer-2 Multics process; it will run whenever a pooled
// virtual processor is available.
func (s *Scheduler) Spawn(name string, body ProcFunc) *Process {
	p := s.newProcess(name, body)
	s.ready.Push(p)
	return p
}

// Unblock makes a blocked process ready. It is the primitive beneath every
// wakeup. Unblocking a ready, running, or finished process is a no-op, so
// wakeups are naturally idempotent.
func (s *Scheduler) Unblock(p *Process) {
	if p.state != StateBlocked {
		return
	}
	p.state = StateReady
	p.blockReason = ""
	p.sleepFor = 0
	if p.vp != nil && p.vp.Dedicated {
		return // dedicated processes stay bound; readiness is enough
	}
	s.ready.Push(p)
}

// At schedules fn to run at absolute virtual time t (immediately before the
// next process dispatch at or after t). Used for device-completion events.
func (s *Scheduler) At(t int64, fn func()) {
	s.seq++
	s.timers.push(timer{at: t, seq: s.seq, fire: fn})
}

// nextRunnable picks the next process to dispatch: dedicated VPs first (the
// kernel's processes take priority, as the real system's wired supervisor
// processes did), then the layer-2 ready queue if a pooled VP is idle.
func (s *Scheduler) nextRunnable() *Process {
	// Round-robin over the dedicated VPs: start one past where the last
	// scan stopped, so a dedicated process that yields (remaining ready)
	// cannot starve its siblings.
	n := len(s.vps)
	for i := 0; i < n; i++ {
		vp := s.vps[(s.dedHand+1+i)%n]
		if vp.Dedicated && vp.current != nil && vp.current.state == StateReady {
			s.dedHand = (s.dedHand + 1 + i) % n
			return vp.current
		}
	}
	for s.ready.Len() > 0 {
		p := s.ready.Peek()
		if p.state == StateReady && p.vp == nil {
			vp := s.idlePooledVP()
			if vp == nil {
				return nil // no pooled VP free: p stays at the head
			}
			p.vp = vp
			vp.current = p
			p.Bindings++
		}
		s.ready.Pop()
		if p.state == StateReady {
			return p
		}
	}
	return nil
}

func (s *Scheduler) idlePooledVP() *VP {
	for _, vp := range s.pooled {
		if vp.current == nil {
			return vp
		}
	}
	return nil
}

// dispatch runs p until it yields (blocks, sleeps, exits, or yields).
func (s *Scheduler) dispatch(p *Process) {
	p.state = StateRunning
	vp := p.vp // nextRunnable bound one
	p.since = s.Clock.Now()
	if _, alive := p.next(); !alive {
		p.finish()
		s.drop(p)
	}
	s.closeDispatch(p, vp)
	if p.state == StateRunning {
		// The process yielded voluntarily: it is still ready. A dedicated
		// kernel process stays bound and is found by the dedicated-VP scan.
		p.state = StateReady
		if !vp.Dedicated {
			s.ready.Push(p)
		}
	}
	if !vp.Dedicated {
		// A layer-2 process that yielded (end of time slice), blocked or
		// finished gives up its VP to others.
		vp.current = nil
		p.vp = nil
	}
}

// closeDispatch ends p's dispatch on vp: it charges the vcycles since the
// dispatch began to the process, the VP and the sched.* counters, and
// records the dispatch on the sink. dispatch calls it when the process
// yields, and Sleep when the process sleeps in place instead.
func (s *Scheduler) closeDispatch(p *Process, vp *VP) {
	now := s.Clock.Now()
	elapsed := now - p.since
	p.CPUCycles += elapsed
	vp.busyCycles += elapsed
	s.mDispatches.Inc()
	s.mDispatchCycles.Add(elapsed)
	if s.sink != nil {
		s.sink.Record(trace.Event{Stage: trace.StageSched, Name: p.Name, Cost: elapsed, At: now})
	}
}

// Step performs one scheduling decision: dispatch a runnable process, or
// advance the clock to the next timer. It returns false when nothing remains
// to do (no runnable process and no pending timer). A process that Step
// dispatches never sleeps in place, so each Step is exactly one decision.
func (s *Scheduler) Step() bool {
	defer func(until int64) { s.until = until }(s.until)
	s.until = 0
	return s.step()
}

func (s *Scheduler) step() bool {
	if p := s.nextRunnable(); p != nil {
		s.dispatch(p)
		return true
	}
	if len(s.timers) > 0 {
		t := s.timers.pop()
		s.Clock.AdvanceTo(t.at)
		if t.fire != nil {
			t.fire()
		}
		if t.proc != nil {
			s.Unblock(t.proc)
		}
		return true
	}
	return false
}

// Run steps the simulation until nothing remains runnable or the clock
// reaches limit (limit <= 0 means no limit). It takes the same decisions
// as a loop of Steps that stops at the limit, except that a process it
// dispatches may sleep in place (see ProcCtx.Sleep). A Run called from a
// process body leaves its caller's limit as it found it.
func (s *Scheduler) Run(limit int64) {
	until := int64(math.MaxInt64)
	if limit > 0 {
		until = limit
	}
	defer func(outer int64) { s.until = outer }(s.until)
	s.until = until
	for s.Clock.Now() < until && s.step() {
	}
}

// BlockedProcesses returns the processes currently blocked, for deadlock
// diagnosis after Run returns.
func (s *Scheduler) BlockedProcesses() []*Process {
	var out []*Process
	for _, p := range s.procs {
		if p.state == StateBlocked {
			out = append(out, p)
		}
	}
	return out
}

// Shutdown stops every live process's coroutine and empties the process
// table. The scheduler is unusable afterwards. It exists so tests and
// benchmarks do not leak the coroutines of dedicated kernel processes
// that loop forever.
func (s *Scheduler) Shutdown() {
	if s.shutdown {
		return
	}
	s.shutdown = true
	// The table is detached before any body unwinds, so a deferred call
	// that spawns or finishes a process cannot change the slice ranged
	// over here.
	procs := s.procs
	s.procs = nil
	for _, p := range procs {
		if p.state == StateRunning {
			continue
		}
		p.stop()
		p.finish()
	}
}

// NewDirectCtx returns a context for host-driven activity that is not a
// scheduled process: Consume and Sleep advance the clock synchronously,
// Yield is a no-op, and Block panics (a direct context has nothing to wake
// it). It lets sequential tools and tests drive kernel services that expect
// a process context without standing up a full scheduled process.
func (s *Scheduler) NewDirectCtx(name string) *ProcCtx {
	p := &Process{Name: name, state: StateRunning}
	return &ProcCtx{s: s, p: p}
}

// ProcCtx is the interface a simulated process body uses to interact with
// the scheduler. Every method must be called from within the process's own
// body function.
type ProcCtx struct {
	s *Scheduler
	p *Process
	// yield is the process coroutine's yield; nil marks a direct context.
	yield func(struct{}) bool
}

// Process returns the process this context belongs to.
func (pc *ProcCtx) Process() *Process { return pc.p }

// Scheduler returns the owning scheduler (for wakeups of other processes).
func (pc *ProcCtx) Scheduler() *Scheduler { return pc.s }

// Now returns the current virtual time.
func (pc *ProcCtx) Now() int64 { return pc.s.Clock.Now() }

// Consume charges cycles of CPU time without yielding the processor.
func (pc *ProcCtx) Consume(cycles int64) {
	pc.s.Clock.Advance(cycles)
}

// yieldToScheduler hands control back and waits to be resumed. yield
// returns false when Shutdown stops the coroutine instead.
func (pc *ProcCtx) yieldToScheduler() {
	if !pc.yield(struct{}{}) {
		panic(errKilled)
	}
}

// Yield gives up the processor but remains ready.
func (pc *ProcCtx) Yield() {
	if pc.yield == nil {
		return
	}
	pc.yieldToScheduler()
}

// Block suspends the process until another process (or a timer/interrupt)
// calls Unblock on it. The reason string aids deadlock diagnosis.
func (pc *ProcCtx) Block(reason string) {
	if pc.yield == nil {
		panic(fmt.Sprintf("sched: direct context %q cannot block (%s)", pc.p.Name, reason))
	}
	pc.block(reason, 0)
}

// block suspends the process with the reason BlockReason will report:
// reason itself, or "sleep <sleepFor>" when sleepFor is positive.
func (pc *ProcCtx) block(reason string, sleepFor int64) {
	pc.p.state = StateBlocked
	pc.p.blockReason = reason
	pc.p.sleepFor = sleepFor
	pc.yieldToScheduler()
}

// Sleep blocks the process for d virtual cycles — the primitive used to
// model waiting for a device transfer.
//
// Under Run, when the sleeper's wakeup is the scheduler's next event, it
// sleeps in place: the ready queue is empty, no dedicated process is
// ready, no timer is due by the wake time and Run's limit lies beyond it.
// The next two decisions then have one outcome each: fire the sleeper's
// timer, then dispatch the sleeper again. Sleep takes them without
// yielding: it closes the dispatch as dispatch would, takes the timer's
// sequence number, advances the clock and opens the next dispatch.
func (pc *ProcCtx) Sleep(d int64) {
	if pc.yield == nil {
		if d > 0 {
			pc.s.Clock.Advance(d)
		}
		return
	}
	if d <= 0 {
		pc.Yield()
		return
	}
	s, p := pc.s, pc.p
	s.seq++
	wake := s.Clock.Now() + d
	if !s.wakesNext(wake) {
		s.timers.push(timer{at: wake, seq: s.seq, proc: p})
		pc.block("", d)
		return
	}
	vp := p.vp
	s.closeDispatch(p, vp)
	s.Clock.AdvanceTo(wake)
	p.since = wake
	// nextRunnable would find the sleeper alone: a dedicated one by the
	// scan, which leaves the hand on its VP, and a pooled one at the head
	// of the queue, bound to the first idle pooled VP, which is the one
	// it gave up.
	if vp.Dedicated {
		s.dedHand = vp.idx
	} else {
		p.Bindings++
	}
}

// wakesNext reports whether a process that sleeps until wake, under Run,
// would be the scheduler's next event: nothing else is runnable, no timer
// is due by wake and Run's limit lies beyond it.
func (s *Scheduler) wakesNext(wake int64) bool {
	if wake >= s.until || s.ready.Len() > 0 || len(s.timers) > 0 && s.timers[0].at <= wake {
		return false
	}
	for _, vp := range s.vps {
		if vp.Dedicated && vp.current != nil && vp.current.state == StateReady {
			return false
		}
	}
	return true
}

// Wakeup unblocks target. This is the base-level IPC primitive; the event
// channels in internal/ipc build on it.
func (pc *ProcCtx) Wakeup(target *Process) {
	pc.s.Unblock(target)
}
