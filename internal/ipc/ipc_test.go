package ipc

import (
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
)

func newSched() *sched.Scheduler {
	s := sched.New(machine.NewClock(), nil)
	s.AddVP("cpu-a", false)
	s.AddVP("cpu-b", false)
	return s
}

func TestSignalThenAwait(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ch := NewChannel("ev", s)
	var got Event
	s.Spawn("producer", func(pc *sched.ProcCtx) {
		pc.Consume(10)
		if err := ch.Signal(pc.Process(), Event{Data: 42}); err != nil {
			t.Errorf("Signal: %v", err)
		}
	})
	s.Spawn("consumer", func(pc *sched.ProcCtx) {
		ev, err := ch.Await(pc)
		if err != nil {
			t.Errorf("Await: %v", err)
		}
		got = ev
	})
	s.Run(0)
	if got.Data != 42 || got.From != "producer" {
		t.Errorf("event = %+v", got)
	}
	if ch.Pending() != 0 || ch.Waiting() != 0 {
		t.Errorf("after one signal and one await: %d pending, %d waiting, want 0 and 0", ch.Pending(), ch.Waiting())
	}
}

func TestAwaitBlocksUntilSignal(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ch := NewChannel("ev", s)
	var wakeTime int64
	s.Spawn("consumer", func(pc *sched.ProcCtx) {
		if _, err := ch.Await(pc); err != nil {
			t.Errorf("Await: %v", err)
		}
		wakeTime = pc.Now()
	})
	s.Spawn("producer", func(pc *sched.ProcCtx) {
		pc.Sleep(500)
		if err := ch.Signal(pc.Process(), Event{}); err != nil {
			t.Errorf("Signal: %v", err)
		}
	})
	s.Run(0)
	if wakeTime < 500 {
		t.Errorf("consumer woke at %d, want >= 500", wakeTime)
	}
}

func TestEventsQueueWithoutWaiter(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ch := NewChannel("ev", s)
	var got []uint64
	s.Spawn("producer", func(pc *sched.ProcCtx) {
		for i := uint64(1); i <= 3; i++ {
			if err := ch.Signal(pc.Process(), Event{Data: i}); err != nil {
				t.Errorf("Signal: %v", err)
			}
		}
	})
	s.Run(0)
	if ch.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", ch.Pending())
	}
	s.Spawn("consumer", func(pc *sched.ProcCtx) {
		for i := 0; i < 3; i++ {
			ev, err := ch.Await(pc)
			if err != nil {
				t.Errorf("Await: %v", err)
				return
			}
			got = append(got, ev.Data)
		}
	})
	s.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events = %v, want FIFO 1,2,3", got)
	}
}

func TestTryAwait(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ch := NewChannel("ev", s)
	s.Spawn("p", func(pc *sched.ProcCtx) {
		if _, ok := ch.TryAwait(); ok {
			t.Error("TryAwait on empty took an event")
		}
		if err := ch.Signal(pc.Process(), Event{Data: 5}); err != nil {
			t.Error(err)
		}
		ev, ok := ch.TryAwait()
		if !ok || ev.Data != 5 {
			t.Errorf("TryAwait = %+v, %v", ev, ok)
		}
	})
	s.Run(0)
}

func TestPendingQueuePopsInPlace(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ch := NewChannel("ev", s)
	signalled, taken := uint64(0), uint64(0)
	// Uneven bursts of signals and takes move the queue's head past half
	// its slice many times; the order must stay FIFO throughout.
	for round := 1; round <= 20; round++ {
		for i := 0; i < round%7+1; i++ {
			signalled++
			if err := ch.Signal(nil, Event{Data: signalled}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < round%5+1 && ch.Pending() > 0; i++ {
			ev, ok := ch.TryAwait()
			if !ok {
				t.Fatalf("round %d: TryAwait took nothing", round)
			}
			taken++
			if ev.Data != taken {
				t.Fatalf("round %d: took event %d, want %d", round, ev.Data, taken)
			}
		}
		if got, want := ch.Pending(), int(signalled-taken); got != want {
			t.Fatalf("round %d: pending = %d, want %d", round, got, want)
		}
	}
	for ch.Pending() > 0 {
		if ev, _ := ch.TryAwait(); ev.Data != taken+1 {
			t.Fatalf("draining: took event %d, want %d", ev.Data, taken+1)
		}
		taken++
	}
	// Events signalled and taken one at a time reuse the array.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			_ = ch.Signal(nil, Event{})
			_, _ = ch.TryAwait()
		}
	})
	if allocs != 0 {
		t.Errorf("8 signals and takes allocate %.0f times, want 0", allocs)
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ch := NewChannel("ev", s)
	var gotErr error
	s.Spawn("consumer", func(pc *sched.ProcCtx) {
		_, gotErr = ch.Await(pc)
	})
	s.Spawn("closer", func(pc *sched.ProcCtx) {
		pc.Consume(10)
		ch.Close()
	})
	s.Run(0)
	if !errors.Is(gotErr, ErrChannelClosed) {
		t.Errorf("await on closed channel = %v, want ErrChannelClosed", gotErr)
	}
	if err := ch.Signal(nil, Event{}); !errors.Is(err, ErrChannelClosed) {
		t.Errorf("signal on closed channel = %v", err)
	}
}

func TestMultipleWaitersServedFIFO(t *testing.T) {
	s := newSched()
	defer s.Shutdown()
	ch := NewChannel("ev", s)
	var order []string
	mkConsumer := func(name string) {
		s.Spawn(name, func(pc *sched.ProcCtx) {
			if _, err := ch.Await(pc); err != nil {
				t.Errorf("%s await: %v", name, err)
				return
			}
			order = append(order, name)
		})
	}
	mkConsumer("c1")
	mkConsumer("c2")
	s.Run(0) // both block
	s.Spawn("producer", func(pc *sched.ProcCtx) {
		if err := ch.Signal(pc.Process(), Event{}); err != nil {
			t.Error(err)
		}
		if err := ch.Signal(pc.Process(), Event{}); err != nil {
			t.Error(err)
		}
	})
	s.Run(0)
	if len(order) != 2 || order[0] != "c1" || order[1] != "c2" {
		t.Errorf("wake order = %v, want [c1 c2]", order)
	}
}
