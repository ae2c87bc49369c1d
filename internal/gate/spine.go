package gate

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// counters holds one gate's accounting handles into the metrics
// registry. The spine updates these on every call, including calls
// rejected before the body runs.
type counters struct {
	calls    *metrics.Counter
	errors   *metrics.Counter
	rejected *metrics.Counter
	vcycles  *metrics.Counter
}

// newCounters resolves the per-gate handles in reg under gate.<name>.*.
func newCounters(reg *metrics.Registry, name string) *counters {
	return &counters{
		calls:    reg.Counter("gate." + name + ".calls"),
		errors:   reg.Counter("gate." + name + ".errors"),
		rejected: reg.Counter("gate." + name + ".rejected"),
		vcycles:  reg.Counter("gate." + name + ".vcycles"),
	}
}

// Stat is one gate's accumulated accounting, as reported by Stats.
type Stat struct {
	// Name and Category identify the gate.
	Name     string   `json:"name"`
	Category Category `json:"category"`
	// Calls counts every invocation through the gatekeeper, including
	// rejected ones.
	Calls int64 `json:"calls"`
	// Errors counts invocations that returned any error.
	Errors int64 `json:"errors"`
	// Rejected counts invocations refused for malformed arguments
	// (oversized lists, wrong arity, missing arguments) — the paper's
	// first review finding made visible.
	Rejected int64 `json:"rejected"`
	// VCycles is the total virtual time charged to the caller's clock
	// while inside the gate.
	VCycles int64 `json:"vcycles"`
}

// SetTraceRing directs the gatekeeper's trace events at ring. A nil ring
// disables gate tracing. Procedures already built read the ring on every
// call, so the change reaches them too.
func (r *Registry) SetTraceRing(ring *trace.Ring) { r.ring = ring }

// SetMetrics repoints the spine's per-gate accounting at reg, so one
// kernel's gate registries share the unified registry exposed as
// Kernel.Services().Metrics. Handles for already-registered gates are
// re-resolved; counts accumulated in the old registry stay behind.
func (r *Registry) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.New()
	}
	r.metrics = reg
	// Mutate in place so procedures already built keep publishing into
	// the new registry (the gatekeeper captures the *counters pointer).
	for i, d := range r.defs {
		*r.counters[i] = *newCounters(reg, d.Name)
	}
}

// Stats returns per-gate accounting in registration order.
func (r *Registry) Stats() []Stat {
	out := make([]Stat, len(r.defs))
	for i, d := range r.defs {
		c := r.counters[i]
		out[i] = Stat{
			Name:     d.Name,
			Category: d.Category,
			Calls:    c.calls.Value(),
			Errors:   c.errors.Value(),
			Rejected: c.rejected.Value(),
			VCycles:  c.vcycles.Value(),
		}
	}
	return out
}

// gatekeeper is gate d's one entry closure: it counts the call, validates
// the arguments, runs the body, classifies any error once, records the
// trace event and charges the clock delta to the gate. Counting and
// tracing cover the validation step deliberately: a rejected argument
// list must still be counted and traced — the paper's review activity
// started from exactly such invisible malformed calls. The event is a value
// published into the ring's pre-allocated slot, so a traced call allocates
// nothing (E20 asserts it).
func (r *Registry) gatekeeper(d Def, c *counters) machine.EntryFunc {
	return func(ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
		c.calls.Inc()
		ring := r.ring
		tracing := ring.Enabled()
		ev := trace.Event{Stage: trace.StageGate, Name: d.Name}
		var clk *machine.Clock
		var before int64
		if ctx != nil {
			if p := ctx.Processor(); p != nil && p.Clock != nil {
				clk = p.Clock
				before = clk.Now()
				ev.At = before
			}
			if tracing {
				ev.Ring = int(ctx.Ring())
			}
		}
		if tracing && len(args) > 0 {
			ev.Arg = args[0]
		}

		// Validation: the global MaxArgs bound and, when the definition
		// declares a positive Arity, the exact argument count.
		var out []uint64
		var err error
		if len(args) > MaxArgs {
			err = BadArgs(d.Name, fmt.Errorf("gate %s: argument list of %d exceeds maximum %d", d.Name, len(args), MaxArgs))
		} else if d.Arity > 0 {
			err = NeedArgs(d.Name, args, d.Arity)
		}
		if err == nil {
			out, err = d.Impl(ctx, args)
		}
		// Every error leaving a gate carries a taxonomy class, so
		// downstream consumers never fall back to string matching.
		class := trace.ClassOK
		if err != nil {
			var ge *Error
			if !errors.As(err, &ge) {
				ge = &Error{Gate: d.Name, Class: Classify(err), Err: err}
				err = ge
			}
			class = ge.Class
		}

		if clk != nil {
			ev.Cost = clk.Now() - before
		}
		if tracing {
			ev.Outcome = class
			if err != nil {
				ev.Detail = err.Error()
			}
			ring.Record(ev)
		}
		c.vcycles.Add(ev.Cost)
		if err != nil {
			c.errors.Inc()
			if class == trace.ClassBadArgs {
				c.rejected.Inc()
			}
		}
		return out, err
	}
}
