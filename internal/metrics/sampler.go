package metrics

import (
	"fmt"

	"repro/internal/trace"
)

// Sampler emits periodic snapshot deltas into a trace.Sink, stamped in
// virtual time. It is driven by Tick(now) from a point that observes the
// virtual clock advancing (the kernel hooks it into the scheduler's
// dispatch events) rather than by a self-rescheduling timer, so an idle
// run still terminates: no dispatches, no samples, and Scheduler.Run can
// drain to completion.
type Sampler struct {
	reg   *Registry
	sink  trace.Sink
	every int64
	next  int64
	prev  Snapshot
	n     int64
}

// NewSampler returns a sampler that emits one StageMetrics event into
// sink for each elapsed interval of `every` virtual cycles. every must
// be positive and sink non-nil.
func NewSampler(reg *Registry, sink trace.Sink, every int64) *Sampler {
	if every <= 0 {
		panic(fmt.Sprintf("metrics: sampler interval must be positive, got %d", every))
	}
	if sink == nil {
		panic("metrics: sampler needs a sink")
	}
	return &Sampler{reg: reg, sink: sink, every: every, next: every, prev: Snapshot{}}
}

// Tick advances the sampler to virtual cycle now. If one or more sample
// boundaries have passed since the last emission, it takes one snapshot,
// emits a single event carrying the delta since the previous sample, and
// arms the next boundary past now.
func (s *Sampler) Tick(now int64) {
	if now >= s.next {
		s.emit(now, "sample")
	}
}

// Samples returns how many sample events have been emitted.
func (s *Sampler) Samples() int64 { return s.n }

// Flush emits a final sample at virtual cycle now even if no boundary
// has passed, so a run's tail activity is reported.
func (s *Sampler) Flush(now int64) { s.emit(now, "flush") }

// emit records one event named name carrying the delta since the
// previous sample, and arms the next boundary past now.
func (s *Sampler) emit(now int64, name string) {
	cur := s.reg.Snapshot()
	cur.At = now
	delta := Delta(s.prev, cur).Compact()
	s.prev = cur
	s.n++
	for s.next <= now {
		s.next += s.every
	}
	s.sink.Record(trace.Event{
		Stage:  trace.StageMetrics,
		Name:   name,
		At:     now,
		Arg:    uint64(s.n),
		Detail: sampleDetail(delta),
	})
}

// sampleDetail compacts a delta into one annotation line:
// "name+delta name+delta ..." for counters, "name=level" for gauges, and
// "name#count" for histograms.
func sampleDetail(d Snapshot) string {
	var b []byte
	for _, c := range d.Counters {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s+%d", c.Name, c.Value)...)
	}
	for _, g := range d.Gauges {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s=%d", g.Name, g.Value)...)
	}
	for _, h := range d.Histograms {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s#%d", h.Name, h.Count)...)
	}
	if len(b) == 0 {
		return "idle"
	}
	return string(b)
}
