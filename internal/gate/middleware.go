package gate

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Middleware wraps one gate entry. BuildProcedure composes the standard
// spine (counters → trace → extra middleware → validation →
// classification) around every gate body; Use appends extra links.
type Middleware func(d Def, next machine.EntryFunc) machine.EntryFunc

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

// Use appends a middleware to the registry's chain. It runs inside the
// spine's counter and trace links but outside argument validation, and
// applies to procedures built after the call.
func (r *Registry) Use(mw Middleware) { r.extra = append(r.extra, mw) }

// SetTraceRing directs the registry's trace middleware at ring. A nil
// ring disables gate tracing. Applies to procedures built after the call.
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
	// the new registry (countMW captures the *counters pointer).
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

// countMW is the outermost link: it observes every call — including ones
// the validator rejects — and charges the clock delta to the gate.
func countMW(c *counters) Middleware {
	return func(d Def, next machine.EntryFunc) machine.EntryFunc {
		return func(ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
			c.calls.Inc()
			var clk *machine.Clock
			var before int64
			if ctx != nil {
				if p := ctx.Processor(); p != nil && p.Clock != nil {
					clk = p.Clock
					before = clk.Now()
				}
			}
			out, err := next(ctx, args)
			if clk != nil {
				c.vcycles.Add(clk.Now() - before)
			}
			if err != nil {
				c.errors.Inc()
				if Classify(err) == trace.ClassBadArgs {
					c.rejected.Inc()
				}
			}
			return out, err
		}
	}
}

// traceMW records one event per crossing into the spine's ring — or,
// when the calling processor carries a per-processor gate sink
// (machine.Processor.SetGateSink), into that sink instead. The override
// is how the execution engine routes each task's gate events into the
// task's private effect buffer for deterministic commit.
func traceMW(r *Registry) Middleware {
	return func(d Def, next machine.EntryFunc) machine.EntryFunc {
		return func(ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
			var sink trace.Sink
			var clk *machine.Clock
			var proc *machine.Processor
			if ctx != nil {
				proc = ctx.Processor()
			}
			if proc != nil {
				sink = proc.GateSink()
			}
			ring := r.ring
			if sink == nil {
				if ring == nil || !ring.Enabled() {
					return next(ctx, args)
				}
				sink = ring
			}
			ev := trace.Event{Stage: trace.StageGate, Name: d.Name}
			if len(args) > 0 {
				ev.Arg = args[0]
			}
			var before int64
			if ctx != nil {
				ev.Ring = int(ctx.Ring())
				if proc != nil && proc.Clock != nil {
					clk = proc.Clock
					before = clk.Now()
					ev.At = before
				}
			}
			out, err := next(ctx, args)
			if clk != nil {
				ev.Cost = clk.Now() - before
			}
			ev.Outcome = Classify(err)
			if err != nil {
				ev.Detail = err.Error()
			}
			sink.Record(ev)
			return out, err
		}
	}
}

// validateMW enforces the gatekeeper's argument checks: the global
// MaxArgs bound and, when the definition declares a positive Arity, the
// exact argument count. Rejections carry trace.ClassBadArgs so the
// counter and trace links upstream can account for them.
func validateMW(d Def, next machine.EntryFunc) machine.EntryFunc {
	return func(ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
		if len(args) > MaxArgs {
			return nil, BadArgs(d.Name, fmt.Errorf("gate %s: argument list of %d exceeds maximum %d", d.Name, len(args), MaxArgs))
		}
		if d.Arity > 0 {
			if err := NeedArgs(d.Name, args, d.Arity); err != nil {
				return nil, err
			}
		}
		return next(ctx, args)
	}
}

// classifyMW guarantees every error leaving a gate body carries a
// taxonomy class, wrapping unclassified errors as *Error so downstream
// consumers never fall back to string matching.
func classifyMW(d Def, next machine.EntryFunc) machine.EntryFunc {
	return func(ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
		out, err := next(ctx, args)
		if err != nil {
			var ge *Error
			if !errors.As(err, &ge) {
				err = &Error{Gate: d.Name, Class: Classify(err), Err: err}
			}
		}
		return out, err
	}
}
