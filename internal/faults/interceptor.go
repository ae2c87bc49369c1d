package faults

import (
	"fmt"

	"repro/internal/interrupt"
)

// FaultyInterceptor wraps an interrupt.Interceptor, dropping and
// duplicating raised interrupts per the plan. A lost interrupt is
// stashed rather than discarded outright; Redeliver flushes the stash
// into the wrapped interceptor, modeling the periodic device poll real
// drivers use to recover events whose interrupts never arrived.
type FaultyInterceptor struct {
	inner interrupt.Interceptor
	in    *Injector
	lost  []lostInterrupt
}

// lostInterrupt is one dropped Raise awaiting redelivery.
type lostInterrupt struct {
	source string
	data   uint64
}

// WrapInterceptor wraps inner with the injector's lost/duplicate plan.
func (in *Injector) WrapInterceptor(inner interrupt.Interceptor) *FaultyInterceptor {
	return &FaultyInterceptor{inner: inner, in: in}
}

// Raise implements interrupt.Interceptor. The loss decision comes first:
// a lost interrupt is stashed and never reaches the inner interceptor;
// a surviving interrupt may additionally be duplicated.
func (fi *FaultyInterceptor) Raise(source string, data uint64) {
	sid := strKey(source)
	n := fi.in.next(PointIntLost, sid, 0)
	if fi.in.plan.Decide(PointIntLost, sid, 0, n) {
		fi.lost = append(fi.lost, lostInterrupt{source: source, data: data})
		fi.in.counts.IntLost++
		fi.in.emit(PointIntLost, sid, data, fmt.Sprintf("interrupt from %q dropped; stashed for redelivery", source))
		return
	}
	fi.inner.Raise(source, data)
	m := fi.in.next(PointIntDup, sid, 0)
	if fi.in.plan.Decide(PointIntDup, sid, 0, m) {
		fi.in.counts.IntDup++
		fi.in.emit(PointIntDup, sid, data, fmt.Sprintf("interrupt from %q delivered twice", source))
		fi.inner.Raise(source, data)
	}
}

// Stats implements interrupt.Interceptor by delegating to the wrapped
// interceptor.
func (fi *FaultyInterceptor) Stats() interrupt.Stats { return fi.inner.Stats() }

// Pending returns how many lost interrupts await redelivery.
func (fi *FaultyInterceptor) Pending() int { return len(fi.lost) }

// Redeliver flushes every stashed lost interrupt into the wrapped
// interceptor — the recovery poll — and returns how many it delivered.
// Redelivered interrupts are not subjected to further loss, mirroring a
// poll that reads device state directly.
func (fi *FaultyInterceptor) Redeliver() int {
	stash := fi.lost
	fi.lost = nil
	for _, li := range stash {
		fi.inner.Raise(li.source, li.data)
	}
	return len(stash)
}
