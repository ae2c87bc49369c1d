package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/acl"
	"repro/internal/kst"
	"repro/internal/linker"
	"repro/internal/machine"
	"repro/internal/mls"
	"repro/internal/pagectl"
	"repro/internal/refname"
	"repro/internal/sched"
)

// ErrProcessDestroyed is returned by a process handle's operations after
// DestroyProcess: the dead handle reaches nothing, least of all the
// processor and descriptor segment that a later process reuses.
var ErrProcessDestroyed = errors.New("core: process destroyed")

// Proc is one Multics process: a descriptor segment, a processor, a known
// segment table, and — depending on the kernel stage — kernel- or user-ring
// resident naming and linking machinery.
type Proc struct {
	Name      string
	Principal acl.Principal
	Label     mls.Label

	// DS, CPU and KST are nil once the process is destroyed.
	DS  *machine.DescriptorSegment
	CPU *machine.Processor
	KST *kst.Table

	// id is the process id: 1 for the kernel's first process, one more
	// for each later one, never reused.
	id uint64

	// kernelNames is the KERNEL-resident reference-name space, present
	// only before the Bratt removal (stage < S2). After S2 the name space
	// is private user-ring state (see internal/userspace).
	kernelNames *refname.Manager

	// searchDirs is the process's search rules: directory UIDs consulted
	// in order by the linker. Before S1 these live in the kernel (set via
	// gates); after S1 the user-ring linker keeps its own copy, but the
	// kernel copy remains for the S0 gate implementations.
	searchDirs []uint64

	// workingDir is the kernel-resident working directory (part of the
	// pre-S2 naming machinery).
	workingDir uint64

	// argTop is the bump allocator over the argument segment.
	argTop int

	k *Kernel
	// pc is the scheduler context while the process body runs.
	pc *sched.ProcCtx
	// sched is the layer-2 process when running under the scheduler.
	sched *sched.Process
}

// CreateProcess builds a process for the given identity. It is the kernel
// function that remains privileged at every stage. The processor comes
// from a destroyed process when one is spare, reset so that it is
// indistinguishable from a new one; otherwise it is allocated.
func (k *Kernel) CreateProcess(name string, who acl.Principal, label mls.Label, ring machine.Ring) (*Proc, error) {
	if !ring.Valid() {
		return nil, fmt.Errorf("core: invalid ring %d", int(ring))
	}
	var cpu *machine.Processor
	if n := len(k.spare); n > 0 {
		cpu = k.spare[n-1]
		k.spare[n-1] = nil
		k.spare = k.spare[:n-1]
		cpu.Reset(k.clock, k.cost, ring)
	} else {
		cpu = machine.NewProcessor(machine.NewDescriptorSegment(descriptorSlots), k.clock, k.cost, ring, k.metrics)
	}
	ds := cpu.DS
	p := &Proc{
		Name:      name,
		Principal: who,
		Label:     label,
		DS:        ds,
		CPU:       cpu,
		KST:       kst.New(ds, FirstUserSegNo),
		k:         k,
	}
	if k.cfg.Stage < S2RefNamesRemoved {
		p.kernelNames = refname.New()
	}
	// Fault delivery feeds the kernel-crossing trace spine: every fault
	// this processor charges becomes a StageFault event in the ring.
	cpu.SetSink(k.trace)

	// The user-available gate segment: callable from any ring via its
	// declared gates, executing in ring 0.
	if err := ds.Set(SegHCS, machine.SDW{
		Proc:     k.hcsProc,
		Mode:     machine.ModeExecute,
		Brackets: machine.Brackets{R1: machine.KernelRing, R2: machine.KernelRing, R3: machine.Ring(machine.NumRings - 1)},
		Gates:    len(k.hcsProc.Entries),
	}); err != nil {
		return nil, err
	}
	// The privileged gate segment: callable only from rings <= 2.
	if err := ds.Set(SegPHCS, machine.SDW{
		Proc:     k.phcsProc,
		Mode:     machine.ModeExecute,
		Brackets: machine.Brackets{R1: machine.KernelRing, R2: machine.KernelRing, R3: machine.SupervisorRing},
		Gates:    len(k.phcsProc.Entries),
	}); err != nil {
		return nil, err
	}
	// The argument segment: read/write in the process's own ring.
	if err := ds.Set(SegArgs, machine.SDW{
		Backing:  machine.NewCoreBacking(ArgSegWords),
		Mode:     machine.ModeRead | machine.ModeWrite,
		Brackets: machine.Brackets{R1: ring, R2: ring, R3: ring},
	}); err != nil {
		return nil, err
	}

	// Page faults taken by this process go to the kernel's page control.
	// Until the process runs under the scheduler, a direct context stands
	// in (synchronous waits).
	direct := k.sch.NewDirectCtx(name + ".direct")
	cpu.Pager = pagectl.ForProcess(k.pager, direct)

	// Before the Janson removal the kernel linker handles linkage faults;
	// afterwards the process installs its own user-ring linker (see
	// internal/userspace), and a fresh process simply has no linker until
	// its user environment initializes one.
	if k.cfg.Stage < S1LinkerRemoved {
		cpu.Linker = linker.New(&kernelLinkEnv{k: k, p: p}, machine.KernelRing)
	}

	k.lastPID++
	p.id = k.lastPID
	k.procs = append(k.procs, p)
	k.byCPU[cpu] = p
	k.peakProcs = max(k.peakProcs, len(k.procs))
	k.mProcsCreated.Inc()
	k.mProcsLive.Set(int64(len(k.procs)))
	return p, nil
}

// DestroyProcess ends p, the way logout ends a Multics process. It makes
// every segment p knows unknown, clears the three fixed descriptors,
// detaches the devices and deletes the event channels that p still owns,
// and removes p from the process table. p's processor, with its
// descriptor segment and associative memory, is kept for CreateProcess to
// reuse. The handle fails closed: its CPU, DS and KST become nil and its
// operations return ErrProcessDestroyed.
//
// Like CreateProcess's own bookkeeping, it charges no virtual cycles: a
// logout's modelled cost is the detach gate its front-end calls.
//
// A process whose body is still running under the scheduler is refused
// with an error, and nothing changes; so is a destroyed one. An error
// releasing a device's buffer segment leaves p alive.
func (k *Kernel) DestroyProcess(p *Proc) error {
	if p.CPU == nil {
		return ErrProcessDestroyed
	}
	if p.k != k {
		return fmt.Errorf("core: process %q belongs to another kernel", p.Name)
	}
	if p.sched != nil && p.sched.State() != sched.StateDone {
		return fmt.Errorf("core: process %q is %v under the scheduler", p.Name, p.sched.State())
	}
	if err := k.devices.detachAll(p); err != nil {
		return fmt.Errorf("core: destroying %q: %w", p.Name, err)
	}
	k.deleteChannelsOf(p)
	for _, e := range p.KST.Known() {
		_ = p.KST.Terminate(e.SegNo) // known, so it cannot fail
	}
	for _, seg := range [...]machine.SegNo{SegHCS, SegArgs, SegPHCS} {
		p.DS.Clear(seg)
	}
	delete(k.byCPU, p.CPU)
	i, _ := slices.BinarySearchFunc(k.procs, p.id, procByID)
	k.procs = slices.Delete(k.procs, i, i+1)
	// spare plus live never exceeds the peak live count: a processor
	// joins spare only as its process leaves the table, and a new one is
	// allocated only when spare is empty.
	k.spare = append(k.spare, p.CPU)
	p.CPU, p.DS, p.KST = nil, nil, nil
	p.kernelNames = nil
	k.mProcsDestroyed.Inc()
	k.mProcsLive.Set(int64(len(k.procs)))
	return nil
}

// ID returns the process id that the process gates report.
func (p *Proc) ID() uint64 { return p.id }

func procByID(p *Proc, id uint64) int { return cmp.Compare(p.id, id) }

// Stage returns the configuration stage of the owning kernel.
func (p *Proc) Stage() Stage { return p.k.cfg.Stage }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// procFor finds the process owning cpu; gate implementations use it to
// recover the caller's identity.
func (k *Kernel) procFor(cpu *machine.Processor) (*Proc, error) {
	p, ok := k.byCPU[cpu]
	if !ok {
		return nil, fmt.Errorf("core: no process for processor (unregistered caller)")
	}
	return p, nil
}

// Processes returns the live processes, in creation order.
func (k *Kernel) Processes() []*Proc { return slices.Clone(k.procs) }

// Process returns the live process with the given id.
func (k *Kernel) Process(id uint64) (*Proc, bool) {
	i, ok := slices.BinarySearchFunc(k.procs, id, procByID)
	if !ok {
		return nil, false
	}
	return k.procs[i], true
}

// ProcessCounts is the population of a kernel's process table.
type ProcessCounts struct {
	// Live is the number of live processes; Peak the most that were
	// live at once.
	Live, Peak int
	// Spare is the number of destroyed processes' processors kept for
	// reuse; it never exceeds Peak.
	Spare int
}

// ProcessCounts reports the process table's population.
func (k *Kernel) ProcessCounts() ProcessCounts {
	return ProcessCounts{Live: len(k.procs), Peak: k.peakProcs, Spare: len(k.spare)}
}

// Run executes body as this process's program under the scheduler,
// returning the layer-2 process. While the body runs, page faults block
// properly in the scheduler. On a destroyed process Run spawns nothing
// and returns nil.
func (p *Proc) Run(body func(pc *sched.ProcCtx)) *sched.Process {
	if p.CPU == nil {
		return nil
	}
	sp := p.k.sch.Spawn(p.Name, func(pc *sched.ProcCtx) {
		p.pc = pc
		p.CPU.Pager = pagectl.ForProcess(p.k.pager, pc)
		defer func() {
			p.pc = nil
			direct := p.k.sch.NewDirectCtx(p.Name + ".direct")
			p.CPU.Pager = pagectl.ForProcess(p.k.pager, direct)
		}()
		body(pc)
	})
	p.sched = sp
	return sp
}

// GateString passes a string argument: it writes s into the process's
// argument segment, one character per word for simplicity of kernel
// validation, in one store run (machine.Processor.StoreString) through
// the processor's checked stores, and returns the (offset, length) pair
// to pass through a gate.
func (p *Proc) GateString(s string) (off, length uint64, err error) {
	if p.CPU == nil {
		return 0, 0, ErrProcessDestroyed
	}
	if p.argTop+len(s) > ArgSegWords {
		p.argTop = 0 // wrap: argument area is transient
		if len(s) > ArgSegWords {
			return 0, 0, fmt.Errorf("core: argument of %d bytes exceeds argument segment", len(s))
		}
	}
	start := p.argTop
	if n, err := p.CPU.StoreString(SegArgs, start, s); err != nil {
		return 0, 0, fmt.Errorf("core: writing argument byte %d: %w", n, err)
	}
	p.argTop += len(s)
	return uint64(start), uint64(len(s)), nil
}

// ReadArgString reads a string the kernel wrote back into the argument
// segment at (off, length), in one load run.
func (p *Proc) ReadArgString(off, length uint64) (string, error) {
	if p.CPU == nil {
		return "", ErrProcessDestroyed
	}
	if length > ArgSegWords {
		return "", fmt.Errorf("core: result length %d implausible", length)
	}
	return p.CPU.LoadString(SegArgs, int(off), int(length))
}

// CallGate invokes the named gate through the machine: the call crosses
// into ring 0 through the gate segment, so every protection check applies.
func (p *Proc) CallGate(name string, args ...uint64) ([]uint64, error) {
	if p.CPU == nil {
		return nil, ErrProcessDestroyed
	}
	if idx, ok := p.k.regUser.EntryIndex(name); ok {
		return p.CPU.Call(SegHCS, idx, args)
	}
	if idx, ok := p.k.regPriv.EntryIndex(name); ok {
		return p.CPU.Call(SegPHCS, idx, args)
	}
	return nil, fmt.Errorf("core: no gate named %q", name)
}

// readUserString is the kernel-side helper: gate implementations use it to
// fetch a string argument from the caller's argument segment, reading
// through the machine (and therefore through the access checks) in ring 0,
// in one load run.
func (k *Kernel) readUserString(ctx *machine.ExecContext, off, length uint64) (string, error) {
	b, err := k.readUserBytes(ctx, off, length)
	return string(b), err
}

// readUserBytes is readUserString without the string, read and charged
// the same: the characters are in the processor's buffer until its next
// load run, for a gate that only looks them up.
func (k *Kernel) readUserBytes(ctx *machine.ExecContext, off, length uint64) ([]byte, error) {
	if length == 0 {
		return nil, nil
	}
	if length > ArgSegWords {
		return nil, fmt.Errorf("core: string argument length %d exceeds argument segment", length)
	}
	b, err := ctx.LoadBytes(SegArgs, int(off), int(length))
	if err != nil {
		var wide *machine.WideWordError
		if errors.As(err, &wide) {
			return nil, fmt.Errorf("core: malformed string argument word %#x", wide.Word)
		}
		return nil, fmt.Errorf("core: reading string argument: %w", err)
	}
	return b, nil
}

// resultBase is the start of the result area of the argument segment, its
// top quarter, where gates write the strings they return.
const resultBase = ArgSegWords * 3 / 4

// writeUserString writes lines, newline-separated, into the caller's
// argument segment at the result area, returning (off, len). Each line
// crosses in one store run, with a newline word between lines, so the
// joined text is never built.
func (k *Kernel) writeUserString(ctx *machine.ExecContext, lines ...string) (uint64, uint64, error) {
	length := max(len(lines)-1, 0)
	for _, l := range lines {
		length += len(l)
	}
	if length > ArgSegWords/4 {
		return 0, 0, fmt.Errorf("core: result string of %d bytes too large", length)
	}
	off := resultBase
	for i, l := range lines {
		if i > 0 {
			if err := ctx.Store(SegArgs, off, '\n'); err != nil {
				return 0, 0, fmt.Errorf("core: writing result string: %w", err)
			}
			off++
		}
		if _, err := ctx.StoreString(SegArgs, off, l); err != nil {
			return 0, 0, fmt.Errorf("core: writing result string: %w", err)
		}
		off += len(l)
	}
	return uint64(resultBase), uint64(length), nil
}
