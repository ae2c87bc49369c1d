package interrupt

import (
	"testing"

	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/sched"
)

func newSched() *sched.Scheduler {
	s := sched.New(machine.NewClock(), nil)
	s.AddVP("cpu-a", false)
	return s
}

func TestBorrowedHandlerRunsImmediatelyAndStealsCycles(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ic := NewBorrowedInterceptor(s)
	var handled []uint64
	if err := ic.Register("disk", func(ev Event, tryBlock func() error) int64 {
		handled = append(handled, ev.Data)
		return 30
	}); err != nil {
		t.Fatal(err)
	}
	// A user process is running when the device completes.
	s.At(100, func() { ic.Raise("disk", 7) })
	s.Spawn("user", func(pc *sched.ProcCtx) { pc.Sleep(500) })
	s.Run(0)
	if len(handled) != 1 || handled[0] != 7 {
		t.Errorf("handled = %v", handled)
	}
	st := ic.Stats()
	if st.StolenCycles != 30 {
		t.Errorf("stolen = %d, want 30", st.StolenCycles)
	}
	if st.Raised != 1 || st.Handled != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBorrowedHandlerCannotBlock(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ic := NewBorrowedInterceptor(s)
	var blockErr error
	if err := ic.Register("tty", func(ev Event, tryBlock func() error) int64 {
		blockErr = tryBlock()
		return 1
	}); err != nil {
		t.Fatal(err)
	}
	ic.Raise("tty", 0)
	if blockErr == nil {
		t.Error("blocking from borrowed context must fail")
	}
	if ic.Stats().BlockedAttempts != 1 {
		t.Errorf("blocked attempts = %d", ic.Stats().BlockedAttempts)
	}
}

func TestBorrowedDuplicateAndUnknown(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ic := NewBorrowedInterceptor(s)
	h := func(Event, func() error) int64 { return 0 }
	if err := ic.Register("x", h); err != nil {
		t.Fatal(err)
	}
	if err := ic.Register("x", h); err == nil {
		t.Error("duplicate registration should fail")
	}
	ic.Raise("unknown", 0) // must not panic
	if ic.Stats().Handled != 0 {
		t.Error("unknown source should not be handled")
	}
}

func TestProcessInterceptorTurnsInterruptIntoWakeup(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ic := NewProcessInterceptor(s)
	var handled []uint64
	if err := ic.Register("disk", func(pc *sched.ProcCtx, ev Event) {
		pc.Consume(30) // handler work happens in ITS OWN process
		handled = append(handled, ev.Data)
	}); err != nil {
		t.Fatal(err)
	}
	user := s.Spawn("user", func(pc *sched.ProcCtx) { pc.Sleep(500) })
	s.At(100, func() { ic.Raise("disk", 9) })
	s.Run(0)
	if len(handled) != 1 || handled[0] != 9 {
		t.Errorf("handled = %v", handled)
	}
	st := ic.Stats()
	if st.StolenCycles != 0 {
		t.Errorf("new design steals no cycles, got %d", st.StolenCycles)
	}
	if st.Handled != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The handler's cycles are charged to its own dedicated process.
	var handler *sched.Process
	for _, p := range s.Processes() {
		if p.Name == "int-handler.disk" {
			handler = p
		}
	}
	if handler == nil || handler.CPUCycles < 30 {
		t.Error("handler cycles not charged to dedicated process")
	}
	_ = user
}

func TestProcessInterceptorQueuesBurst(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ic := NewProcessInterceptor(s)
	var handled []uint64
	if err := ic.Register("net", func(pc *sched.ProcCtx, ev Event) {
		handled = append(handled, ev.Data)
	}); err != nil {
		t.Fatal(err)
	}
	// A burst of raises before the handler runs: none may be lost.
	for i := uint64(0); i < 5; i++ {
		ic.Raise("net", i)
	}
	s.Run(0)
	if len(handled) != 5 {
		t.Fatalf("handled = %v, want 5 events", handled)
	}
	for i, d := range handled {
		if d != uint64(i) {
			t.Errorf("event order = %v", handled)
			break
		}
	}
}

func TestProcessInterceptorHandlersMayUseIPC(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ic := NewProcessInterceptor(s)
	// Handler for "disk" forwards to the handler process for "log" via the
	// standard IPC channel — the coordination the paper's new design buys.
	if err := ic.Register("log", func(pc *sched.ProcCtx, ev Event) {}); err != nil {
		t.Fatal(err)
	}
	logCh, _ := ic.Channel("log")
	forwarded := int64(0)
	if err := ic.Register("disk", func(pc *sched.ProcCtx, ev Event) {
		if err := logCh.Signal(pc.Process(), ipc.Event{Data: ev.Data}); err == nil {
			forwarded++
		}
	}); err != nil {
		t.Fatal(err)
	}
	ic.Raise("disk", 3)
	s.Run(0)
	if forwarded != 1 {
		t.Errorf("forwarded = %d", forwarded)
	}
	st := ic.Stats()
	if st.Handled < 2 {
		t.Errorf("both handlers should run: %+v", st)
	}
}

func TestProcessInterceptorDuplicateAndUnknown(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ic := NewProcessInterceptor(s)
	h := func(*sched.ProcCtx, Event) {}
	if err := ic.Register("x", h); err != nil {
		t.Fatal(err)
	}
	if err := ic.Register("x", h); err == nil {
		t.Error("duplicate registration should fail")
	}
	ic.Raise("unknown", 0)
	s.Run(0)
	if ic.Stats().Handled != 0 {
		t.Error("unknown source should not be handled")
	}
	if _, ok := ic.Channel("nope"); ok {
		t.Error("unknown channel lookup should fail")
	}
}

func TestLatencyAccounting(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ic := NewProcessInterceptor(s)
	if err := ic.Register("d", func(pc *sched.ProcCtx, ev Event) { pc.Consume(10) }); err != nil {
		t.Fatal(err)
	}
	ic.Raise("d", 1)
	s.Run(0)
	if ic.Stats().TotalLatency < 10 {
		t.Errorf("latency = %d, want >= handler cycles", ic.Stats().TotalLatency)
	}
}
