// Package core implements the paper's contribution: the Multics security
// kernel, built at each stage of the review / removal / simplification /
// partitioning programme so the structural and behavioural consequences of
// every step can be measured.
//
// A Kernel owns the whole simulated system — memory hierarchy, file system,
// scheduler, page control, I/O, answering service — and exposes it to
// simulated user processes exclusively through two gate segments:
//
//	hcs_   user-available gates (callable from the user ring)
//	phcs_  privileged gates (callable only from inner non-kernel rings)
//
// Which mechanisms sit behind gates in ring 0, and which run unprivileged
// in the user ring, is exactly what changes from stage to stage.
package core

import (
	"fmt"

	"repro/internal/auth"
	"repro/internal/faults"
	"repro/internal/fs"
	"repro/internal/gate"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mls"
	"repro/internal/pagectl"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Stage identifies one configuration of the kernel-reduction programme.
type Stage int

// The stages, in the order the paper's projects land.
const (
	// S0Baseline: the full 645-era supervisor — linker, reference names,
	// login, per-device I/O, bootstrap initialization, sequential page
	// control all inside ring 0.
	S0Baseline Stage = iota
	// S1LinkerRemoved: the Janson project — dynamic linking runs in the
	// user ring; the linker gates are gone.
	S1LinkerRemoved
	// S2RefNamesRemoved: the Bratt project — reference names and tree-name
	// resolution run in the user ring; the kernel's file-system interface
	// is keyed by segment numbers.
	S2RefNamesRemoved
	// S3InitRemoved: system initialization becomes "load a generated
	// memory image"; only the image loader stays privileged.
	S3InitRemoved
	// S4LoginDemoted: the answering service becomes an unprivileged
	// protected subsystem; the kernel keeps only a create-process gate.
	S4LoginDemoted
	// S5IOConsolidated: the ARPA network attachment replaces the
	// per-device I/O drivers; input buffering moves to the infinite
	// VM-backed buffer.
	S5IOConsolidated
	// S6Restructured: the simplification and partitioning stage — parallel
	// page control with dedicated kernel processes, interrupts as
	// processes, page-replacement policy split into the policy ring.
	S6Restructured
	// NumStages is the number of configurations.
	NumStages
)

func (s Stage) String() string {
	switch s {
	case S0Baseline:
		return "S0-baseline"
	case S1LinkerRemoved:
		return "S1-linker-removed"
	case S2RefNamesRemoved:
		return "S2-refnames-removed"
	case S3InitRemoved:
		return "S3-init-removed"
	case S4LoginDemoted:
		return "S4-login-demoted"
	case S5IOConsolidated:
		return "S5-io-consolidated"
	case S6Restructured:
		return "S6-restructured"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Config parameterizes kernel construction.
type Config struct {
	// Stage selects the kernel configuration, and with it the machine
	// cost model: the paper's hardware history, the 645 for S0 and the
	// 6180 from S1 on.
	Stage Stage
	// Mem sizes the memory hierarchy; zero value = mem.DefaultConfig
	// scaled up for multi-process workloads.
	Mem *mem.Config
	// Faults, when non-nil, compiles a deterministic fault plan from the
	// spec and installs its injector across the kernel's layers (backing
	// store now; connections when a front-end wires itself in). This is
	// the fault plane's single entry point — there is no post-hoc setter.
	Faults *faults.Spec
}

// Well-known per-process segment numbers.
const (
	// SegHCS is the user-available gate segment.
	SegHCS machine.SegNo = 1
	// SegArgs is the per-process argument-passing segment.
	SegArgs machine.SegNo = 2
	// SegPHCS is the privileged gate segment.
	SegPHCS machine.SegNo = 3
	// FirstUserSegNo is where the KST starts assigning segment numbers.
	FirstUserSegNo machine.SegNo = 8
)

// ArgSegWords is the size of the argument segment.
const ArgSegWords = 2048

// descriptorSlots is the size of every process's descriptor segment.
const descriptorSlots = 128

// traceRingSize is the capacity of the kernel-crossing trace ring.
const traceRingSize = 4096

// Kernel is one configured instance of the system.
type Kernel struct {
	cfg   Config
	clock *machine.Clock
	cost  machine.CostModel

	store *mem.Store
	hier  *fs.Hierarchy
	sch   *sched.Scheduler
	pager pagectl.Pager

	regUser  *gate.Registry
	regPriv  *gate.Registry
	hcsProc  *machine.Procedure
	phcsProc *machine.Procedure

	// trace is the kernel-crossing trace ring shared by the gate spine,
	// fault delivery, the scheduler, and the network front-end.
	trace *trace.Ring

	// metrics is the unified measurement plane: every instrumented
	// subsystem (machine, mem, pagectl, sched, gate, netattach,
	// workload) publishes into this one registry, exposed as
	// Services().Metrics.
	metrics *metrics.Registry
	// sampler, when EnableMetricsSampler was called, emits periodic
	// snapshot deltas into the trace spine.
	sampler *metrics.Sampler

	registry *auth.Registry
	// answer is the body of as_$login (S0–S3); nil from S4, where the
	// answering subsystem runs the login outside the kernel.
	answer *auth.Service

	// faults is the fault plane's injector, when Config.Faults asked for
	// one; nil otherwise.
	faults *faults.Injector

	// programs maps segment UID -> executable body for initiated
	// procedure segments.
	programs map[uint64]*programInfo

	// procs is the process table: the live processes in id order. byCPU
	// lets gate implementations find the calling process. lastPID is the
	// last id handed out; peakProcs is the most processes live at once.
	procs     []*Proc
	byCPU     map[*machine.Processor]*Proc
	lastPID   uint64
	peakProcs int
	// spare holds destroyed processes' processors, each with its
	// descriptor segment and associative memory, for CreateProcess to
	// reuse.
	spare []*machine.Processor
	// mProcsCreated, mProcsDestroyed and mProcsLive count the process
	// table's traffic on the metrics plane.
	mProcsCreated   *metrics.Counter
	mProcsDestroyed *metrics.Counter
	mProcsLive      *metrics.Gauge

	// channels is the kernel event-channel table.
	channels map[uint64]*kernelChannel
	nextChn  uint64

	// devices is the I/O attachment table.
	devices *deviceTable

	// names is hcs_$list_dir's listing buffer, reused by every call.
	names []string

	// modules is the non-gate kernel code inventory for this stage.
	modules []Module

	// BootReport records how this kernel instance was initialized.
	BootReport string
	// PrivilegedBootSteps and PrivilegedBootCycles summarize boot
	// privilege for the inventory.
	PrivilegedBootSteps  int
	PrivilegedBootCycles int64

	// SystemCrashes counts faults taken by ring-0 code — the paper's
	// "malfunction while executing in the supervisor". User-ring faults
	// are the affected process's problem and are not counted here.
	SystemCrashes int64
}

// New constructs and boots a kernel at the configured stage.
func New(cfg Config) (*Kernel, error) {
	return build(cfg, nil)
}

// restoreState carries a decoded checkpoint through build's restore path.
type restoreState struct {
	man     *Manifest
	backing mem.BackingStore
}

// build is the construction path shared by New (rst == nil: fresh boot)
// and Restore (rst != nil: rebuild layer-1 and layer-2 state from the
// checkpoint manifest instead of bootstrapping).
func build(cfg Config, rst *restoreState) (*Kernel, error) {
	if cfg.Stage < 0 || cfg.Stage >= NumStages {
		return nil, fmt.Errorf("core: invalid stage %d", int(cfg.Stage))
	}
	k := &Kernel{
		cfg:      cfg,
		clock:    machine.NewClock(),
		programs: make(map[uint64]*programInfo),
		byCPU:    make(map[*machine.Processor]*Proc),
		channels: make(map[uint64]*kernelChannel),
		nextChn:  1,
		trace:    trace.NewRing(traceRingSize),
		metrics:  metrics.New(),
	}
	k.metrics.SetNow(k.clock.Now)
	k.mProcsCreated = k.metrics.Counter("core.procs_created")
	k.mProcsDestroyed = k.metrics.Counter("core.procs_destroyed")
	k.mProcsLive = k.metrics.Gauge("core.procs_live")
	if cfg.Stage == S0Baseline {
		k.cost = machine.Model645()
	} else {
		k.cost = machine.Model6180()
	}

	memCfg := mem.DefaultConfig()
	memCfg.CoreFrames = 512
	memCfg.BulkBlocks = 2048
	if cfg.Mem != nil {
		memCfg = *cfg.Mem
	}
	if memCfg.Metrics == nil {
		memCfg.Metrics = k.metrics
	}
	if rst != nil {
		memCfg.Backing = rst.backing
		if memCfg.PageWords != rst.man.PageWords {
			return nil, fmt.Errorf("core: restore page size %d does not match checkpoint page size %d",
				memCfg.PageWords, rst.man.PageWords)
		}
	}
	var err error
	k.store, err = mem.NewStore(memCfg)
	if err != nil {
		return nil, fmt.Errorf("core: building memory hierarchy: %w", err)
	}
	// A durable backing store is opened before the kernel that adopts it
	// exists, so it is the one subsystem not bound to the kernel's
	// registry by its constructor: adopt it into the measurement plane
	// here. The structural assertion keeps core free of a blockstore
	// import — any store with the rebind surface joins.
	if sm, ok := k.store.Backing().(interface{ SetMetrics(*metrics.Registry) }); ok {
		sm.SetMetrics(k.metrics)
	}
	if rst == nil {
		k.hier, err = fs.New(k.store, mls.Label{}, k.metrics)
		if err != nil {
			return nil, fmt.Errorf("core: building file hierarchy: %w", err)
		}
	} else if err := k.restoreStorage(rst); err != nil {
		return nil, fmt.Errorf("core: restoring from checkpoint: %w", err)
	}
	if cfg.Faults != nil {
		plan, err := faults.Compile(*cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("core: compiling fault plan: %w", err)
		}
		k.faults = faults.NewInjector(plan, k.clock, k.trace)
		k.store.SetFaultHook(k.faults)
	}
	k.sch = sched.New(k.clock, k.metrics)
	k.sch.SetSink(k.trace)
	// Layer 1: a fixed set of virtual processors. Two pooled VPs serve the
	// layer-2 Multics processes at every stage; the restructured kernel
	// adds dedicated VPs for its kernel processes below.
	k.sch.AddVP("cpu-a", false)
	k.sch.AddVP("cpu-b", false)

	if cfg.Stage >= S6Restructured {
		pcfg := pagectl.DefaultParallelConfig(memCfg)
		pp, err := pagectl.NewParallelPager(k.store, k.sch, pcfg, nil, k.metrics)
		if err != nil {
			return nil, fmt.Errorf("core: building parallel page control: %w", err)
		}
		k.pager = pp
	} else {
		k.pager = pagectl.NewSequentialPager(k.store, nil, k.metrics)
	}

	k.registry = auth.NewRegistry()
	if cfg.Stage < S4LoginDemoted {
		k.answer = auth.NewService(k.registry, nil)
	}

	k.devices = newDeviceTable(cfg.Stage, k.store)

	if err := k.buildGates(); err != nil {
		return nil, fmt.Errorf("core: building gate segments: %w", err)
	}
	k.modules = stageModules(cfg.Stage)

	if rst != nil {
		k.restoreBoot(rst.man)
		return k, nil
	}
	if err := k.initialize(); err != nil {
		return nil, fmt.Errorf("core: initializing: %w", err)
	}
	return k, nil
}

// The twelve per-subsystem accessors deprecated when the Services facade
// landed (Stage, Clock, Cost, Store, Hierarchy, Scheduler, Pager,
// UserRegistry, AnsweringService, TraceRing, UserGates, PrivGates) have
// been deleted; use Services().

// Shutdown stops kernel processes; the kernel is unusable afterwards.
func (k *Kernel) Shutdown() { k.sch.Shutdown() }
