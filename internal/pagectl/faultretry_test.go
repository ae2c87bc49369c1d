package pagectl

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// flakyHook fails the first n PageIO calls with mem.ErrIO, then passes
// everything.
type flakyHook struct {
	failLeft int
}

func (h *flakyHook) PageIO(op mem.IOOp, pid mem.PageID) error {
	if h.failLeft > 0 {
		h.failLeft--
		return fmt.Errorf("%w: flaky %v on %v", mem.ErrIO, op, pid)
	}
	return nil
}

func (h *flakyHook) PageOut(op mem.IOOp, pid mem.PageID, data []uint64) {}

func TestSequentialPagerRetriesInjectedIOErrors(t *testing.T) {
	store := tinyMem(t, 4, 8)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	store.SetFaultHook(&flakyHook{failLeft: 3})
	clk := machine.NewClock()
	sch := sched.New(clk)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p := NewSequentialPager(store, nil)
	touchPages(t, sch, p, 1, []int{0, 1, 2})
	st := p.Stats()
	if st.IORetries != 3 {
		t.Errorf("IORetries = %d, want 3", st.IORetries)
	}
	if st.Faults != 3 {
		t.Errorf("Faults = %d, want 3 — retries must not double-count", st.Faults)
	}
}

func TestSequentialPagerGivesUpAfterRetryLimit(t *testing.T) {
	store := tinyMem(t, 4, 8)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	store.SetFaultHook(&flakyHook{failLeft: 1 << 30}) // never recovers
	clk := machine.NewClock()
	sch := sched.New(clk)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p := NewSequentialPager(store, nil)
	var handleErr error
	sch.Spawn("doomed", func(pc *sched.ProcCtx) {
		handleErr = p.Handle(pc, fault(1, 0))
	})
	sch.Run(0)
	if handleErr == nil {
		t.Fatal("Handle succeeded against a permanently failing store")
	}
	if st := p.Stats(); st.IORetries != ioRetryLimit {
		t.Errorf("IORetries = %d, want the limit %d", st.IORetries, ioRetryLimit)
	}
}

func TestSequentialPagerRetryBacksOffInVirtualTime(t *testing.T) {
	store := tinyMem(t, 4, 8)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	clk := machine.NewClock()
	sch := sched.New(clk)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)

	// Clean run first to learn the no-fault cost.
	p := NewSequentialPager(store, nil)
	touchPages(t, sch, p, 1, []int{0})
	cleanCycles := clk.Now()

	store2 := tinyMem(t, 4, 8)
	if _, err := store2.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	store2.SetFaultHook(&flakyHook{failLeft: 4})
	clk2 := machine.NewClock()
	sch2 := sched.New(clk2)
	defer sch2.Shutdown()
	sch2.AddVP("cpu", false)
	p2 := NewSequentialPager(store2, nil)
	touchPages(t, sch2, p2, 1, []int{0})

	// Four doubling backoffs: 8+16+32+64 extra virtual cycles minimum.
	wantExtra := int64(ioRetryBackoff * (1 + 2 + 4 + 8))
	if got := clk2.Now() - cleanCycles; got < wantExtra {
		t.Errorf("retry run only %d cycles over clean run, want >= %d (backoff must cost virtual time)",
			got, wantExtra)
	}
}

func TestParallelPagerRetriesInjectedIOErrors(t *testing.T) {
	store := tinyMem(t, 8, 16)
	if _, err := store.CreateSegment(1, 1000); err != nil {
		t.Fatal(err)
	}
	store.SetFaultHook(&flakyHook{failLeft: 3})
	clk := machine.NewClock()
	sch := sched.New(clk)
	defer sch.Shutdown()
	sch.AddVP("cpu", false)
	p, err := NewParallelPager(store, sch, ParallelConfig{CoreLowWater: 1, CoreTarget: 2, BulkLowWater: 1, BulkTarget: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	touchPages(t, sch, p, 1, []int{0, 1, 2, 3})
	if st := p.Stats(); st.IORetries != 3 {
		t.Errorf("IORetries = %d, want 3", st.IORetries)
	}
}
