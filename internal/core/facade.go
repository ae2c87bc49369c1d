package core

import (
	"repro/internal/auth"
	"repro/internal/faults"
	"repro/internal/fs"
	"repro/internal/gate"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pagectl"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Services is the kernel's service facade: every subsystem a caller
// outside the kernel may legitimately touch, gathered in one value.
// It replaces the crop of ad-hoc per-subsystem accessors that grew on
// Kernel — one method per field, each added for one caller — with a
// single surface that new subsystems (most recently the fault plane)
// join without minting another accessor.
//
// The fields are live references into the running kernel, not copies;
// a Services value is cheap to obtain and need not be retained.
type Services struct {
	// Stage is the kernel configuration stage.
	Stage Stage
	// Clock is the system virtual clock.
	Clock *machine.Clock
	// Cost is the machine cost model in use.
	Cost machine.CostModel
	// Store is the memory hierarchy.
	Store *mem.Store
	// Hierarchy is the file hierarchy. Simulated user code must go
	// through the gates; this reference is for experiments and drivers.
	Hierarchy *fs.Hierarchy
	// Scheduler is the process scheduler.
	Scheduler *sched.Scheduler
	// Pager is the active page-control implementation.
	Pager pagectl.Pager
	// Users is the answering service's user data base.
	Users *auth.Registry
	// Trace is the kernel-crossing trace ring. Every layer of the spine
	// — gate dispatch, fault delivery, scheduling, network attachment,
	// fault injection — records into this one ring.
	Trace *trace.Ring
	// UserGates and PrivGates are the hcs_ / phcs_ gate registries.
	UserGates *gate.Registry
	PrivGates *gate.Registry
	// Faults is the fault plane's injector, nil unless the kernel was
	// built with a fault spec (Config.Faults).
	Faults *faults.Injector
	// Metrics is the unified measurement plane: one registry every
	// instrumented subsystem publishes into, replacing the four ad-hoc
	// stats surfaces (PerfCounters, GateStats, mem.TransferStats, and
	// the netattach counters) as the way to observe a running kernel.
	Metrics *metrics.Registry
}

// Services returns the kernel's service facade.
func (k *Kernel) Services() Services {
	return Services{
		Stage:     k.cfg.Stage,
		Clock:     k.clock,
		Cost:      k.cost,
		Store:     k.store,
		Hierarchy: k.hier,
		Scheduler: k.sch,
		Pager:     k.pager,
		Users:     k.registry,
		Trace:     k.trace,
		UserGates: k.regUser,
		PrivGates: k.regPriv,
		Faults:    k.faults,
		Metrics:   k.metrics,
	}
}
