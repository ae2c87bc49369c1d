package sched

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/machine"
)

func newSched() *Scheduler { return New(machine.NewClock(), nil) }

func TestSingleProcessRunsToCompletion(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	ran := false
	p := s.Spawn("worker", func(pc *ProcCtx) {
		pc.Consume(100)
		ran = true
	})
	s.Run(0)
	if !ran {
		t.Error("process body did not run")
	}
	if p.State() != StateDone {
		t.Errorf("state = %v, want done", p.State())
	}
	if s.Clock.Now() != 100 {
		t.Errorf("clock = %d, want 100", s.Clock.Now())
	}
	if p.CPUCycles != 100 {
		t.Errorf("CPUCycles = %d, want 100", p.CPUCycles)
	}
}

func TestProcessesShareOneVP(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	var order []string
	mk := func(name string) ProcFunc {
		return func(pc *ProcCtx) {
			for i := 0; i < 3; i++ {
				order = append(order, name)
				pc.Consume(10)
				pc.Yield()
			}
		}
	}
	s.Spawn("a", mk("a"))
	s.Spawn("b", mk("b"))
	s.Run(0)
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	// With one pooled VP and voluntary yields, one process runs fully before
	// the VP frees (binding persists across yields), so execution need not
	// interleave — but both must complete.
	counts := map[string]int{}
	for _, n := range order {
		counts[n]++
	}
	if counts["a"] != 3 || counts["b"] != 3 {
		t.Errorf("counts = %v", counts)
	}
}

func TestBlockAndUnblock(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	var got []string
	var waiter *Process
	waiter = s.Spawn("waiter", func(pc *ProcCtx) {
		got = append(got, "before-block")
		pc.Block("waiting for poker")
		got = append(got, "after-block")
	})
	s.Spawn("poker", func(pc *ProcCtx) {
		pc.Consume(50)
		got = append(got, "poke")
		pc.Wakeup(waiter)
	})
	s.Run(0)
	want := []string{"before-block", "poke", "after-block"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("sequence = %v, want %v", got, want)
	}
	if waiter.State() != StateDone {
		t.Errorf("waiter state = %v", waiter.State())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	var wake int64
	s.Spawn("sleeper", func(pc *ProcCtx) {
		pc.Consume(5)
		pc.Sleep(1000)
		wake = pc.Now()
	})
	s.Run(0)
	if wake != 1005 {
		t.Errorf("woke at %d, want 1005", wake)
	}
}

func TestSleepersWakeInOrder(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	s.AddVP("cpu-b", false)
	var order []string
	s.Spawn("late", func(pc *ProcCtx) {
		pc.Sleep(200)
		order = append(order, "late")
	})
	s.Spawn("early", func(pc *ProcCtx) {
		pc.Sleep(100)
		order = append(order, "early")
	})
	s.Run(0)
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Errorf("order = %v", order)
	}
}

func TestDedicatedVPHasPriority(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	kvp := s.AddVP("kernel-vp", true)
	s.AddVP("cpu-a", false)
	var order []string
	kp, err := s.SpawnDedicated(kvp, "kernel-proc", func(pc *ProcCtx) {
		for i := 0; i < 2; i++ {
			order = append(order, "kernel")
			pc.Block("wait for work")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("user", func(pc *ProcCtx) {
		order = append(order, "user")
		pc.Wakeup(kp)
		pc.Consume(10)
		order = append(order, "user2")
	})
	s.Run(0)
	// Kernel runs first (dedicated priority), blocks; user runs, wakes it;
	// when user yields/finishes kernel preempts at next decision point.
	if order[0] != "kernel" {
		t.Errorf("dedicated process should run first: %v", order)
	}
	found := false
	for _, o := range order[1:] {
		if o == "kernel" {
			found = true
		}
	}
	if !found {
		t.Errorf("kernel process never re-ran after wakeup: %v", order)
	}
}

func TestSpawnDedicatedErrors(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	pooled := s.AddVP("cpu-a", false)
	if _, err := s.SpawnDedicated(pooled, "x", func(*ProcCtx) {}); err == nil {
		t.Error("SpawnDedicated on pooled VP should fail")
	}
	dvp := s.AddVP("kvp", true)
	if _, err := s.SpawnDedicated(dvp, "one", func(pc *ProcCtx) { pc.Block("forever") }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpawnDedicated(dvp, "two", func(*ProcCtx) {}); err == nil {
		t.Error("double-binding a dedicated VP should fail")
	}
}

func TestRunLimitStops(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	s.Spawn("spinner", func(pc *ProcCtx) {
		for {
			pc.Consume(10)
			pc.Yield()
		}
	})
	s.Run(500)
	if s.Clock.Now() < 500 || s.Clock.Now() > 600 {
		t.Errorf("clock after limited run = %d", s.Clock.Now())
	}
}

func TestBlockedProcessesReported(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	s.Spawn("stuck", func(pc *ProcCtx) {
		pc.Block("never woken")
	})
	s.Run(0)
	blocked := s.BlockedProcesses()
	if len(blocked) != 1 || blocked[0].Name != "stuck" {
		t.Errorf("blocked = %v", blocked)
	}
	if blocked[0].BlockReason() != "never woken" {
		t.Errorf("reason = %q", blocked[0].BlockReason())
	}
}

func TestSleepBlockReason(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	sleeper := s.Spawn("sleeper", func(pc *ProcCtx) {
		pc.Sleep(50)
		pc.Block("woken, then stuck")
	})
	napper := s.Spawn("napper", func(pc *ProcCtx) { pc.Sleep(20) })
	for len(s.BlockedProcesses()) < 2 {
		if !s.Step() {
			t.Fatal("ran out of work before both processes slept")
		}
	}
	if got := sleeper.BlockReason(); got != "sleep 50" {
		t.Errorf("sleeping: reason = %q", got)
	}
	if got := napper.BlockReason(); got != "sleep 20" {
		t.Errorf("napping: reason = %q", got)
	}
	s.Run(0)
	if got := sleeper.BlockReason(); got != "woken, then stuck" {
		t.Errorf("blocked after the timer: reason = %q", got)
	}
	if got := napper.BlockReason(); got != "" {
		t.Errorf("finished after the timer: reason = %q, want empty", got)
	}
}

func TestAtTimerFires(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	fired := int64(-1)
	s.At(250, func() { fired = s.Clock.Now() })
	s.Spawn("w", func(pc *ProcCtx) { pc.Sleep(500) })
	s.Run(0)
	if fired != 250 {
		t.Errorf("timer fired at %d, want 250", fired)
	}
}

// TestSameTimeTimersFireInSetOrder sets timers due at a handful of
// vcycles, some through At and some through Sleep, and checks that they
// fire by due time and, within one vcycle, in the order they were set.
func TestSameTimeTimersFireInSetOrder(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	var order []string
	rec := func(name string) func() { return func() { order = append(order, name) } }
	// Due times 300, 100, 200, 100, 300, ... so equal times are set apart.
	due := func(i int) int64 { return 100 * int64(1+(i*2)%3) }
	for i := 0; i < 6; i++ {
		s.At(due(i), rec(fmt.Sprintf("at%d", i)))
	}
	for i := 6; i < 12; i++ {
		name := fmt.Sprintf("sleep%d", i)
		d := due(i)
		s.Spawn(name, func(pc *ProcCtx) {
			pc.Sleep(d)
			order = append(order, name)
		})
	}
	// One pooled VP runs the sleepers one by one at vcycle 0, so their
	// timers are set after the six At timers and in spawn order.
	s.Run(0)
	var want []string
	for _, at := range []int64{100, 200, 300} {
		for i := 0; i < 12; i++ {
			if due(i) != at {
				continue
			}
			if i < 6 {
				want = append(want, fmt.Sprintf("at%d", i))
			} else {
				want = append(want, fmt.Sprintf("sleep%d", i))
			}
		}
	}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Errorf("firing order\n got %v\nwant %v", order, want)
	}
}

// TestTimersDoNotAllocate pins that setting a timer costs no allocation
// once the heap has grown: Sleep and At store the timer by value, and a
// Sleep that ends in place under Run sets none.
func TestTimersDoNotAllocate(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	s.Spawn("sleeper", func(pc *ProcCtx) {
		for {
			pc.Consume(1)
			pc.Sleep(10)
		}
	})
	// Each pass dispatches the sleeper, which sets its timer, and then
	// pops that timer.
	if allocs := testing.AllocsPerRun(100, func() { s.Step(); s.Step() }); allocs != 0 {
		t.Errorf("a Sleep and its wakeup allocate %.1f times, want 0", allocs)
	}
	fired := 0
	fire := func() { fired++ }
	if allocs := testing.AllocsPerRun(100, func() {
		s.At(s.Clock.Now(), fire)
		s.Step()
	}); allocs != 0 {
		t.Errorf("an At timer allocates %.1f times, want 0", allocs)
	}
	if fired == 0 {
		t.Error("no At timer fired")
	}
	// Under Run the sleeper's wakeup is the next event, so each Sleep
	// but the one that reaches the limit ends in place.
	limit := s.Clock.Now()
	if allocs := testing.AllocsPerRun(100, func() {
		limit += 110
		s.Run(limit)
	}); allocs != 0 {
		t.Errorf("a Run of ten Sleeps allocates %.1f times, want 0", allocs)
	}
}

func TestTwoVPsRunInParallelLogically(t *testing.T) {
	// With two pooled VPs, a blocked process's VP is released and the other
	// process can proceed; total work completes.
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	s.AddVP("cpu-b", false)
	done := 0
	var first *Process
	first = s.Spawn("first", func(pc *ProcCtx) {
		pc.Block("hold")
		done++
	})
	s.Spawn("second", func(pc *ProcCtx) {
		pc.Consume(10)
		pc.Wakeup(first)
		done++
	})
	s.Run(0)
	if done != 2 {
		t.Errorf("done = %d, want 2", done)
	}
	if first.Bindings < 1 {
		t.Errorf("first bindings = %d", first.Bindings)
	}
}

func TestUnblockIdempotent(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	runs := 0
	var p *Process
	p = s.Spawn("p", func(pc *ProcCtx) {
		pc.Block("once")
		runs++
	})
	s.Spawn("q", func(pc *ProcCtx) {
		pc.Wakeup(p)
		pc.Wakeup(p) // double wakeup must not double-run
		pc.Wakeup(p)
	})
	s.Run(0)
	if runs != 1 {
		t.Errorf("runs = %d, want 1", runs)
	}
	// Unblock on a done process is a no-op.
	s.Unblock(p)
	if p.State() != StateDone {
		t.Errorf("state = %v", p.State())
	}
}

func TestShutdownKillsBlockedProcesses(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := newSched()
	s.AddVP("cpu-a", false)
	kvp := s.AddVP("kvp", true)
	unwound := map[string]bool{}
	body := func(name string, wait func(pc *ProcCtx)) ProcFunc {
		return func(pc *ProcCtx) {
			defer func() { unwound[name] = true }()
			wait(pc)
			t.Errorf("%s ran past its wait", name)
		}
	}
	dedicated, err := s.SpawnDedicated(kvp, "dedicated", body("dedicated", func(pc *ProcCtx) {
		for {
			pc.Block("forever")
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	blocked := s.Spawn("blocked", body("blocked", func(pc *ProcCtx) { pc.Block("x") }))
	sleeping := s.Spawn("sleeping", body("sleeping", func(pc *ProcCtx) { pc.Sleep(1000) }))
	never := s.Spawn("never-started", func(pc *ProcCtx) { t.Error("never-started ran") })
	// Three dispatches: the dedicated process first, then the ready queue
	// in order. never-started is left at the head of the queue.
	for i := 0; i < 3; i++ {
		s.Step()
	}
	procs := []*Process{dedicated, blocked, sleeping, never}
	for _, p := range procs[:3] {
		if p.State() != StateBlocked {
			t.Fatalf("%s: state = %v before shutdown, want blocked", p.Name, p.State())
		}
	}
	if got := runtime.NumGoroutine(); got <= baseline {
		t.Fatalf("goroutines = %d with four live processes, baseline %d", got, baseline)
	}
	s.Shutdown()
	s.Shutdown() // idempotent
	for _, p := range procs {
		if p.State() != StateDone {
			t.Errorf("%s: state = %v after shutdown, want done", p.Name, p.State())
		}
	}
	for _, name := range []string{"dedicated", "blocked", "sleeping"} {
		if !unwound[name] {
			t.Errorf("%s: deferred call did not run on the kill", name)
		}
	}
	if kvp.Current() != nil {
		t.Errorf("dedicated VP still bound to %s", kvp.Current().Name)
	}
	if got := runtime.NumGoroutine(); got != baseline {
		t.Errorf("goroutines = %d after shutdown, want baseline %d", got, baseline)
	}
}

// TestFinishedProcessesLeaveTheTable: Processes lists only live
// processes, so spawning short-lived bodies does not grow the table, and
// Shutdown empties it.
func TestFinishedProcessesLeaveTheTable(t *testing.T) {
	s := newSched()
	s.AddVP("cpu-a", false)
	for i := 0; i < 100; i++ {
		s.Spawn("short", func(pc *ProcCtx) { pc.Consume(1) })
	}
	stuck := s.Spawn("stuck", func(pc *ProcCtx) { pc.Block("never woken") })
	napper := s.Spawn("napper", func(pc *ProcCtx) { pc.Sleep(10) })
	s.Run(0)
	if got := s.Processes(); len(got) != 1 || got[0] != stuck {
		t.Fatalf("after the run Processes() lists %d processes, want only the blocked one", len(got))
	}
	if napper.State() != StateDone {
		t.Fatalf("napper state = %v, want done", napper.State())
	}
	s.Shutdown()
	if got := s.Processes(); len(got) != 0 {
		t.Errorf("after Shutdown Processes() lists %d processes, want none", len(got))
	}
	if stuck.State() != StateDone {
		t.Errorf("stuck state = %v after Shutdown, want done", stuck.State())
	}
}

// crasherBody is a named process body, so its frame can be looked for in
// the stack a panic carries out of the coroutine.
func crasherBody(pc *ProcCtx) {
	pc.Yield()
	panic("crasher: boom")
}

func TestBodyPanicReachesRun(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	s.Spawn("crasher", crasherBody)
	defer func() {
		r := recover()
		bp, ok := r.(*BodyPanic)
		if !ok {
			t.Fatalf("Run's caller recovered %T %v, want a *BodyPanic", r, r)
		}
		if bp.Value != "crasher: boom" || bp.Process != "crasher" {
			t.Errorf("BodyPanic carries %v from %q, want the body's panic value from crasher", bp.Value, bp.Process)
		}
		if !strings.Contains(string(bp.Stack), "sched.crasherBody(") {
			t.Errorf("BodyPanic stack does not name the body's function:\n%s", bp.Stack)
		}
		if msg := bp.Error(); !strings.Contains(msg, "crasher: boom") || !strings.Contains(msg, "sched.crasherBody(") {
			t.Errorf("BodyPanic.Error() = %q, want the value and the body's stack", msg)
		}
	}()
	s.Run(0)
	t.Error("Run returned after a body panicked")
}

func TestDispatchDoesNotAllocate(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	s.AddVP("cpu-a", false)
	s.Spawn("yielder", func(pc *ProcCtx) {
		for {
			pc.Consume(1)
			pc.Yield()
		}
	})
	if allocs := testing.AllocsPerRun(100, func() { s.Step() }); allocs != 0 {
		t.Errorf("one dispatch of a yielding process allocates %.1f times, want 0", allocs)
	}
}

func TestVPUtilizationAccounting(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	vp := s.AddVP("cpu-a", false)
	s.Spawn("w", func(pc *ProcCtx) { pc.Consume(123) })
	s.Run(0)
	if vp.BusyCycles() != 123 {
		t.Errorf("busy cycles = %d, want 123", vp.BusyCycles())
	}
}
