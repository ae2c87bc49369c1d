package sched

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// FuzzRunMatchesStep decodes its input into a small script of processes
// and plays it on two fresh schedulers: one driven by Run(limit) and then
// Run(0), the other by a loop of bare Steps with the same limit check.
// Step is the one-decision primitive, so whatever Run skips or does in
// place must leave the same log: every dispatch event, every body action
// with the clock before and after it, the state at the limit and at the
// end, and the dispatch counters. A body may itself drain the scheduler,
// by a nested Run(0) in the first play and by Steps in the second.
func FuzzRunMatchesStep(f *testing.F) {
	for _, sc := range handScripts() {
		f.Add(sc.encode())
	}
	rng := rand.New(rand.NewPCG(1975, 43))
	for range 64 {
		b := make([]byte, 8+rng.IntN(56))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScript(data)
		byRun, bySteps := sc.play(true), sc.play(false)
		if byRun != bySteps {
			t.Fatalf("Run and Step disagree on %v\n%s", sc, firstDiff(byRun, bySteps))
		}
	})
}

// Script actions. Each is one byte of op and one byte of argument.
const (
	opConsume = iota // Consume(arg % 16)
	opSleep          // Sleep(arg % 24), so Sleep(0) occurs
	opYield
	opBlock
	opWakeup // Wakeup(process arg % n)
	opAt     // At(now + arg%24, a wakeup of process arg/24 % n)
	opDrain  // a nested Run(0), or Steps until none is left
	numOps
)

type action struct{ op, arg byte }

func consume(k byte) action       { return action{opConsume, k} }
func sleep(d byte) action         { return action{opSleep, d} }
func yield() action               { return action{op: opYield} }
func block() action               { return action{op: opBlock} }
func wakeup(proc byte) action     { return action{opWakeup, proc} }
func at(delay, proc byte) action  { return action{opAt, proc*24 + delay} }
func drain() action               { return action{op: opDrain} }
func body(a ...action) procScript { return procScript{rounds: 1, actions: a} }

func (a action) String() string {
	switch a.op {
	case opConsume:
		return fmt.Sprintf("consume(%d)", a.arg%16)
	case opSleep:
		return fmt.Sprintf("sleep(%d)", a.arg%24)
	case opYield:
		return "yield"
	case opBlock:
		return "block"
	case opWakeup:
		return fmt.Sprintf("wakeup(#%d)", a.arg)
	case opAt:
		return fmt.Sprintf("at(+%d,#%d)", a.arg%24, a.arg/24)
	default:
		return "drain"
	}
}

// procScript is one process body: its actions, played rounds times.
type procScript struct {
	rounds  int // 1–3
	actions []action
}

// script is a whole scenario. Processes are numbered dedicated first,
// then pooled, and Wakeup and At name them by that number modulo the
// count.
type script struct {
	vps       int   // pooled VPs, 1–3
	limit     int64 // Run's first limit, 0 for none, at most 127
	dedicated []procScript
	pooled    []procScript
}

// maxActions bounds one body's action list.
const maxActions = 6

// decodeScript reads any input as a script; bytes past the end read as 0.
// The layout is a header of pooled VPs, dedicated processes, pooled
// processes and limit (odd: limit = b/2), then for each process one byte
// of action count and rounds followed by its actions.
func decodeScript(data []byte) script {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	sc := script{vps: 1 + int(next()%3)}
	nded, npooled := int(next()%3), 1+int(next()%4)
	if b := next(); b%2 == 1 {
		sc.limit = int64(b / 2)
	}
	proc := func() procScript {
		b := next()
		ps := procScript{rounds: 1 + int(b/maxActions)%3}
		for range 1 + int(b%maxActions) {
			ps.actions = append(ps.actions, action{next() % numOps, next()})
		}
		return ps
	}
	for range nded {
		sc.dedicated = append(sc.dedicated, proc())
	}
	for range npooled {
		sc.pooled = append(sc.pooled, proc())
	}
	return sc
}

// encode is decodeScript's inverse for a script within its ranges.
func (sc script) encode() []byte {
	b := []byte{byte(sc.vps - 1), byte(len(sc.dedicated)), byte(len(sc.pooled) - 1), 0}
	if sc.limit > 0 {
		b[3] = byte(sc.limit*2 + 1)
	}
	for _, ps := range append(append([]procScript{}, sc.dedicated...), sc.pooled...) {
		b = append(b, byte((ps.rounds-1)*maxActions+len(ps.actions)-1))
		for _, a := range ps.actions {
			b = append(b, a.op, a.arg)
		}
	}
	return b
}

// play runs the script on a fresh scheduler, driven by Run when byRun and
// by bare Steps otherwise, and returns its log.
func (sc script) play(byRun bool) string {
	var log strings.Builder
	reg := metrics.New()
	s := New(machine.NewClock(), reg)
	defer s.Shutdown()
	s.SetSink(trace.SinkFunc(func(ev trace.Event) {
		fmt.Fprintf(&log, "dispatch %s cost %d at %d\n", ev.Name, ev.Cost, ev.At)
	}))
	var procs []*Process
	run := func(name string, ps procScript) ProcFunc {
		return func(pc *ProcCtx) {
			for range ps.rounds {
				for _, a := range ps.actions {
					start := pc.Now()
					target := procs[int(a.arg)%len(procs)]
					switch a.op {
					case opConsume:
						pc.Consume(int64(a.arg % 16))
					case opSleep:
						pc.Sleep(int64(a.arg % 24))
					case opYield:
						pc.Yield()
					case opBlock:
						pc.Block("script")
					case opWakeup:
						pc.Wakeup(target)
					case opAt:
						target = procs[int(a.arg/24)%len(procs)]
						s.At(pc.Now()+int64(a.arg%24), func() {
							fmt.Fprintf(&log, "timer wakes %s at %d\n", target.Name, s.Clock.Now())
							s.Unblock(target)
						})
					case opDrain:
						if byRun {
							s.Run(0)
						} else {
							for s.Step() {
							}
						}
					}
					fmt.Fprintf(&log, "%s %v %d->%d\n", name, a, start, pc.Now())
				}
			}
		}
	}
	for i, ps := range sc.dedicated {
		name := fmt.Sprintf("d%d", i)
		p, err := s.SpawnDedicated(s.AddVP("k"+name, true), name, run(name, ps))
		if err != nil {
			panic(err)
		}
		procs = append(procs, p)
	}
	for i := range sc.vps {
		s.AddVP(fmt.Sprintf("cpu%d", i), false)
	}
	for i, ps := range sc.pooled {
		name := fmt.Sprintf("p%d", i)
		procs = append(procs, s.Spawn(name, run(name, ps)))
	}
	snapshot := func(when string) {
		fmt.Fprintf(&log, "%s: clock %d\n", when, s.Clock.Now())
		for _, p := range procs {
			fmt.Fprintf(&log, "  %s %v cpu %d bindings %d reason %q\n",
				p.Name, p.State(), p.CPUCycles, p.Bindings, p.BlockReason())
		}
		for _, vp := range s.VPs() {
			fmt.Fprintf(&log, "  %s busy %d\n", vp.Name, vp.BusyCycles())
		}
	}
	if byRun {
		s.Run(sc.limit)
	} else {
		for (sc.limit <= 0 || s.Clock.Now() < sc.limit) && s.Step() {
		}
	}
	snapshot("limit")
	if byRun {
		s.Run(0)
	} else {
		for s.Step() {
		}
	}
	snapshot("end")
	fmt.Fprintf(&log, "dispatches %d cycles %d\n",
		reg.Counter("sched.dispatches").Value(), reg.Counter("sched.dispatch_cycles").Value())
	return log.String()
}

// handScripts holds one script for each condition under which a sleeper
// may or may not skip the scheduler's next two decisions.
func handScripts() []script {
	lone := body(consume(5), sleep(10), consume(3), sleep(7))
	lone.rounds = 2
	limited := func(limit int64) script {
		return script{vps: 1, limit: limit, pooled: []procScript{body(consume(5), sleep(10), consume(1))}}
	}
	// p0 waits; p1 sets a timer that wakes p0 at +delay, then sleeps 10.
	timed := func(delay byte) script {
		return script{vps: 1, pooled: []procScript{
			body(block(), consume(2)),
			body(at(delay, 0), sleep(10), consume(1)),
		}}
	}
	pooled := func(ps ...procScript) script { return script{vps: 1, pooled: ps} }
	return []script{
		// A lone sleeper, pooled and then dedicated (once p0 is done).
		pooled(lone),
		{vps: 2, dedicated: []procScript{lone}, pooled: []procScript{body(consume(1))}},
		// A timer due before the wake, exactly at it and after it.
		timed(5),
		timed(10),
		timed(15),
		// Another dedicated process ready: woken by the pooled sleeper,
		// or still ready after a yield.
		{vps: 1, dedicated: []procScript{body(block(), consume(4), block(), consume(4))},
			pooled: []procScript{body(wakeup(0), sleep(10), wakeup(0), sleep(3))}},
		{vps: 1, dedicated: []procScript{body(yield(), consume(2), yield()), body(sleep(6), consume(1))},
			pooled: []procScript{body(consume(1))}},
		// A pooled process waiting in the ready queue.
		pooled(body(sleep(10), consume(1)), body(consume(3), sleep(2))),
		// A Run limit before the wake, exactly at it and after it.
		limited(12),
		limited(15),
		limited(20),
		// Sleep(0), which yields.
		pooled(body(consume(2), sleep(0), consume(2), sleep(0))),
		// A dedicated sleeper whose nested Run dispatched another
		// dedicated process, and a nested Run under a limit.
		{vps: 1, dedicated: []procScript{
			body(wakeup(1), drain(), sleep(5), wakeup(1), yield(), consume(2)),
			body(block(), consume(1), block(), consume(1)),
		}, pooled: []procScript{body(consume(1))}},
		{vps: 2, limit: 8, pooled: []procScript{body(drain(), sleep(10), consume(1)), body(consume(2))}},
	}
}

// firstDiff returns the first line where two logs differ, with the line
// before it.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			prev := ""
			if i > 0 {
				prev = la[i-1]
			}
			return fmt.Sprintf("after %q\n Run:  %q\n Step: %q", prev, la[i], lb[i])
		}
	}
	return fmt.Sprintf("one log is a prefix of the other (%d vs %d lines)", len(la), len(lb))
}
