package iosys

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mem"
)

// seqHook returns a scripted error sequence from PageIO, one entry per
// call, then succeeds forever.
type seqHook struct {
	errs []error
}

func (h *seqHook) PageIO(op mem.IOOp, pid mem.PageID) error {
	if len(h.errs) == 0 {
		return nil
	}
	err := h.errs[0]
	h.errs = h.errs[1:]
	if err != nil {
		return fmt.Errorf("scripted %v on %v: %w", op, pid, err)
	}
	return nil
}

func (h *seqHook) PageOut(op mem.IOOp, pid mem.PageID, data []uint64) {}

func (h *seqHook) remaining() int { return len(h.errs) }

// repeatErrs builds a script of n copies of err.
func repeatErrs(err error, n int) []error {
	out := make([]error, n)
	for i := range out {
		out[i] = err
	}
	return out
}

func TestInfiniteBufferRetriesInjectedErrors(t *testing.T) {
	permanent := errors.New("iosys test: permanent failure")
	cases := []struct {
		name    string
		script  []error
		wantPut bool // Put of the first message must succeed
	}{
		{"no-faults", nil, true},
		{"one-io-error", repeatErrs(mem.ErrIO, 1), true},
		{"io-error-burst", repeatErrs(mem.ErrIO, pageRetryLimit-1), true},
		{"exhausts-retry-budget", repeatErrs(mem.ErrIO, pageRetryLimit), false},
		{"non-retryable", []error{permanent}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := bufStore(t)
			hook := &seqHook{errs: tc.script}
			s.SetFaultHook(hook)
			b, err := NewInfiniteBuffer(s, 600)
			if err != nil {
				t.Fatal(err)
			}
			err = b.Put(Message{Seq: 1, Data: 42})
			if tc.wantPut && err != nil {
				t.Fatalf("Put failed despite retry budget: %v", err)
			}
			if !tc.wantPut {
				if err == nil {
					t.Fatal("Put succeeded past a non-recoverable script")
				}
				return
			}
			m, ok, err := b.Get()
			if err != nil || !ok || m.Seq != 1 || m.Data != 42 {
				t.Fatalf("Get = %+v, %v, %v", m, ok, err)
			}
			if hook.remaining() != 0 {
				t.Errorf("script not fully consumed: %d errors left", hook.remaining())
			}
		})
	}
}

func TestInfiniteBufferTrimsUnderInjectedErrors(t *testing.T) {
	// The trim path must stay exact while page-ins keep flaking: every
	// fourth transfer fails once, yet residency stays bounded and FIFO
	// order holds across hundreds of page cycles.
	s := bufStore(t)
	var calls int
	s.SetFaultHook(hookFunc(func(op mem.IOOp, pid mem.PageID) error {
		calls++
		if calls%4 == 0 {
			return fmt.Errorf("every-4th: %w", mem.ErrIO)
		}
		return nil
	}))
	b, err := NewInfiniteBuffer(s, 601)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 800; i++ {
		if err := b.Put(Message{Seq: i, Data: i * 7}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		m, ok, err := b.Get()
		if err != nil || !ok || m.Seq != i || m.Data != i*7 {
			t.Fatalf("Get %d = %+v, %v, %v", i, m, ok, err)
		}
		if got := b.PagesUsed(); got > 1 {
			t.Fatalf("after message %d residency is %d pages, want <= 1", i, got)
		}
	}
	if got := b.PagesUsed(); got != 0 {
		t.Errorf("idle buffer holds %d pages, want 0", got)
	}
}

// hookFunc adapts a function to mem.FaultHook with a no-op PageOut.
type hookFunc func(op mem.IOOp, pid mem.PageID) error

func (f hookFunc) PageIO(op mem.IOOp, pid mem.PageID) error        { return f(op, pid) }
func (f hookFunc) PageOut(op mem.IOOp, pid mem.PageID, d []uint64) {}
