package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

// worker is a process under the kernel's scheduler that performs one
// command each time the load generator wakes it. Between commands it is
// blocked, so the generator's single goroutine decides what runs and when; the
// scheduler's own process goroutines do the running.
type worker struct {
	sch *sched.Scheduler
	sp  *sched.Process
	// do is the pending command; the process clears it when done.
	do func()
}

// startWorker runs p as a worker and lets it reach its first wait.
func startWorker(p *core.Proc, sch *sched.Scheduler) *worker {
	w := &worker{sch: sch}
	w.sp = p.Run(func(pc *sched.ProcCtx) {
		for {
			pc.Block("perfbench: awaiting a command")
			if w.do == nil {
				return
			}
			w.do()
			w.do = nil
		}
	})
	sch.Run(0)
	return w
}

// call runs fn on the worker's process and drives the scheduler until
// nothing is runnable and no timer is pending, so the background kernel
// processes finish what fn set in motion before call returns.
func (w *worker) call(tr *tracer, fn func()) error {
	w.do = fn
	s := tr.begin(w.sch.Clock)
	w.sch.Unblock(w.sp)
	w.sch.Run(0)
	tr.end(kDispatch, w.sch.Clock, s)
	if w.do != nil {
		return fmt.Errorf("worker %s stalled: %s", w.sp.Name, w.sp.BlockReason())
	}
	return nil
}
