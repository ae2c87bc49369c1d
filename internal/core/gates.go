package core

import (
	"errors"
	"fmt"

	"repro/internal/fs"
	"repro/internal/gate"
	"repro/internal/linker"
	"repro/internal/machine"
)

// gdef is one row of a declarative gate table: the name, functional
// category, ring bracket (the outermost ring allowed to call), exact
// argument arity (0 = unchecked), code-unit weight, and handler. Adding
// a gate is adding a row; the registry verifies arity centrally and the
// experiment harness derives its gate-count tables from these rows.
type gdef struct {
	name    string
	cat     gate.Category
	bracket machine.Ring // outermost caller ring; SupervisorRing ⇒ phcs_ registry
	arity   int          // exact argument count enforced by the gatekeeper; 0 = unchecked
	units   int          // protected code units behind the gate
	anon    bool         // handler does not resolve the calling process
	impl    func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error)
}

// userRing is the bracket of ordinary user-available gates.
const userRing = machine.Ring(machine.NumRings - 1)

// install registers a gate table. Rows bracketed at SupervisorRing or
// tighter go to the privileged registry (phcs_, not user-available);
// everything else goes to the user registry. Unless the row is marked
// anon, the calling process is resolved before the handler runs.
func (k *Kernel) install(defs []gdef) {
	for _, g := range defs {
		g := g
		reg, user := k.regUser, true
		if g.bracket <= machine.SupervisorRing {
			reg, user = k.regPriv, false
		}
		impl := func(ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
			var p *Proc
			if !g.anon {
				var err error
				if p, err = k.caller(ctx); err != nil {
					return nil, err
				}
			}
			return g.impl(p, ctx, args)
		}
		reg.MustRegister(gate.Def{
			Name: g.name, Category: g.cat, UserAvailable: user,
			CodeUnits: g.units, Arity: g.arity, Impl: impl,
		})
	}
}

// buildGates constructs the stage's two gate registries from the
// declarative tables and compiles them into the shared gate procedure
// segments, both wired to the kernel's trace ring.
func (k *Kernel) buildGates() error {
	k.regUser = gate.NewRegistry(k.metrics)
	k.regPriv = gate.NewRegistry(k.metrics)
	k.regUser.SetTraceRing(k.trace)
	k.regPriv.SetTraceRing(k.trace)

	k.install(k.addressSpaceGates())
	if k.cfg.Stage < S1LinkerRemoved {
		k.install(k.linkerGates())
	}
	k.install(k.fileSystemGates())
	k.install(k.processGates())
	k.install(k.ioGates())
	if k.cfg.Stage < S4LoginDemoted {
		k.install(k.loginGates())
	}
	k.install(k.miscGates())
	k.install(k.privilegedGates())

	k.hcsProc = k.regUser.BuildProcedure()
	k.phcsProc = k.regPriv.BuildProcedure()
	return nil
}

// caller recovers the calling process of a gate invocation.
func (k *Kernel) caller(ctx *machine.ExecContext) (*Proc, error) {
	return k.procFor(ctx.Processor())
}

// kernelMalfunction records a malfunction of ring-0 code — the event the
// paper's removal projects shrink the opportunity for. It returns the error
// that aborts the gate call; in the real system this class of event crashed
// or corrupted the supervisor. The error is classified ClassMalfunction so
// the audit suite and the trace ring recognize it structurally.
func (k *Kernel) kernelMalfunction(op string, err error) error {
	k.SystemCrashes++
	return gate.Malfunction(op, fmt.Errorf("core: SUPERVISOR MALFUNCTION in %s: %w", op, err))
}

// treeNameArg reads the tree name in the first two argument words and
// resolves it in ring 0: the S0/S1 kernel naming service. It returns the
// name with the UID it names.
func (k *Kernel) treeNameArg(p *Proc, ctx *machine.ExecContext, args []uint64) (string, uint64, error) {
	path, err := k.readUserString(ctx, args[0], args[1])
	if err != nil {
		return "", 0, err
	}
	uid, err := k.resolvePathKernel(p, path)
	return path, uid, err
}

// refNameArg reads the reference name in the first two argument words and
// resolves it in the kernel-resident name space (S0/S1).
func (k *Kernel) refNameArg(p *Proc, ctx *machine.ExecContext, args []uint64) (machine.SegNo, error) {
	ref, err := k.readUserString(ctx, args[0], args[1])
	if err != nil {
		return 0, err
	}
	seg, ok := p.kernelNames.Resolve(ref)
	if !ok {
		return 0, fmt.Errorf("core: reference name %q not bound", ref)
	}
	return seg, nil
}

// addressSpaceGates is the address-space and reference-name table. Before
// the Bratt removal it is the wide, path-and-name-keyed family whose
// implementation drags tree-name resolution and the reference name manager
// into ring 0; afterwards it is two narrow entries.
func (k *Kernel) addressSpaceGates() []gdef {
	if k.cfg.Stage >= S2RefNamesRemoved {
		return []gdef{
			{name: "hcs_$initiate_uid", cat: gate.CatAddressSpace, bracket: userRing, arity: 1, units: 2,
				impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
					seg, err := k.initiateUID(p, args[0])
					if err != nil {
						return nil, err
					}
					return ctx.Return(uint64(seg)), nil
				}},
			{name: "hcs_$terminate_seg", cat: gate.CatAddressSpace, bracket: userRing, arity: 1, units: 2,
				impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
					return nil, p.KST.Terminate(machine.SegNo(args[0]))
				}},
		}
	}

	// --- Baseline (S0/S1): the kernel-resident naming interface. ---

	// initiateByPath resolves, initiates, and optionally binds a reference
	// name, all inside ring 0.
	initiateByPath := func(p *Proc, ctx *machine.ExecContext, args []uint64) (machine.SegNo, error) {
		_, uid, err := k.treeNameArg(p, ctx, args)
		if err != nil {
			return 0, err
		}
		seg, err := k.initiateUID(p, uid)
		if err != nil {
			return 0, err
		}
		if args[3] > 0 {
			ref, err := k.readUserString(ctx, args[2], args[3])
			if err != nil {
				return 0, err
			}
			if _, bound := p.kernelNames.Resolve(ref); !bound {
				if err := p.kernelNames.Bind(ref, seg); err != nil {
					return 0, err
				}
			}
		}
		return seg, nil
	}

	return []gdef{
		{name: "hcs_$initiate", cat: gate.CatAddressSpace, bracket: userRing, arity: 4, units: 8,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				seg, err := initiateByPath(p, ctx, args)
				if err != nil {
					return nil, err
				}
				return ctx.Return(uint64(seg)), nil
			}},
		{name: "hcs_$initiate_count", cat: gate.CatAddressSpace, bracket: userRing, arity: 4, units: 6,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				seg, err := initiateByPath(p, ctx, args)
				if err != nil {
					return nil, err
				}
				uid, _ := p.KST.UIDForSegNo(seg)
				obj, err := k.hier.Object(uid)
				if err != nil {
					return nil, err
				}
				return ctx.Return(uint64(seg), uint64(obj.BitCount())), nil
			}},
		{name: "hcs_$terminate_name", cat: gate.CatRefName, bracket: userRing, arity: 2, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				seg, err := k.refNameArg(p, ctx, args)
				if err != nil {
					return nil, err
				}
				p.kernelNames.UnbindSegno(seg)
				return nil, p.KST.Terminate(seg)
			}},
		{name: "hcs_$terminate_seg", cat: gate.CatAddressSpace, bracket: userRing, arity: 1, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				seg := machine.SegNo(args[0])
				p.kernelNames.UnbindSegno(seg)
				return nil, p.KST.Terminate(seg)
			}},
		{name: "hcs_$terminate_noname", cat: gate.CatRefName, bracket: userRing, arity: 1, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				p.kernelNames.UnbindSegno(machine.SegNo(args[0]))
				return nil, nil
			}},
		{name: "hcs_$make_ptr", cat: gate.CatRefName, bracket: userRing, arity: 2, units: 4,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				ref, err := k.readUserString(ctx, args[0], args[1])
				if err != nil {
					return nil, err
				}
				if seg, ok := p.kernelNames.Resolve(ref); ok {
					return ctx.Return(uint64(seg)), nil
				}
				env := &kernelLinkEnv{k: k, p: p}
				uid, err := env.LookupSegment(ref)
				if err != nil {
					return nil, err
				}
				seg, err := k.initiateUID(p, uid)
				if err != nil {
					return nil, err
				}
				if err := p.kernelNames.Bind(ref, seg); err != nil {
					return nil, err
				}
				return ctx.Return(uint64(seg)), nil
			}},
		{name: "hcs_$fs_get_path_name", cat: gate.CatAddressSpace, bracket: userRing, arity: 1, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, ok := p.KST.UIDForSegNo(machine.SegNo(args[0]))
				if !ok {
					return nil, fmt.Errorf("core: segment %d not known", args[0])
				}
				path, err := k.hier.PathOf(uid)
				if err != nil {
					return nil, err
				}
				off, length, err := k.writeUserString(ctx, path)
				if err != nil {
					return nil, err
				}
				return ctx.Return(off, length), nil
			}},
		{name: "hcs_$fs_get_ref_name", cat: gate.CatRefName, bracket: userRing, arity: 1, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				names := p.kernelNames.NamesFor(machine.SegNo(args[0]))
				if len(names) == 0 {
					return nil, fmt.Errorf("core: no reference names for segment %d", args[0])
				}
				off, length, err := k.writeUserString(ctx, names[0])
				if err != nil {
					return nil, err
				}
				return ctx.Return(off, length), nil
			}},
		{name: "hcs_$fs_get_seg_ptr", cat: gate.CatRefName, bracket: userRing, arity: 2, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				seg, err := k.refNameArg(p, ctx, args)
				if err != nil {
					return nil, err
				}
				return ctx.Return(uint64(seg)), nil
			}},
		{name: "hcs_$fs_get_mode", cat: gate.CatRefName, bracket: userRing, arity: 2, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				seg, err := k.refNameArg(p, ctx, args)
				if err != nil {
					return nil, err
				}
				e, ok := p.KST.Entry(seg)
				if !ok {
					return nil, fmt.Errorf("core: segment %d not known", seg)
				}
				return ctx.Return(uint64(e.Mode)), nil
			}},
		{name: "hcs_$set_wdir", cat: gate.CatRefName, bracket: userRing, arity: 2, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				_, uid, err := k.treeNameArg(p, ctx, args)
				if err != nil {
					return nil, err
				}
				obj, err := k.hier.Object(uid)
				if err != nil {
					return nil, err
				}
				if obj.Kind != fs.KindDirectory {
					return nil, fs.ErrNotDirectory
				}
				p.workingDir = uid
				return nil, nil
			}},
		{name: "hcs_$get_wdir", cat: gate.CatRefName, bracket: userRing, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				if p.workingDir == 0 {
					p.workingDir = fs.RootUID
				}
				path, err := k.hier.PathOf(p.workingDir)
				if err != nil {
					return nil, err
				}
				off, length, err := k.writeUserString(ctx, path)
				if err != nil {
					return nil, err
				}
				return ctx.Return(off, length), nil
			}},
		{name: "hcs_$terminate_file", cat: gate.CatRefName, bracket: userRing, arity: 2, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				path, uid, err := k.treeNameArg(p, ctx, args)
				if err != nil {
					return nil, err
				}
				seg, ok := p.KST.SegNoForUID(uid)
				if !ok {
					return nil, fmt.Errorf("core: %q is not initiated", path)
				}
				p.kernelNames.UnbindSegno(seg)
				return nil, p.KST.Terminate(seg)
			}},
		{name: "hcs_$high_low_seg_count", cat: gate.CatAddressSpace, bracket: userRing, units: 1,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return ctx.Return(uint64(p.KST.Len()), uint64(FirstUserSegNo)), nil
			}},
	}
}

// linkerGates is the in-kernel dynamic linker table of the baseline
// system — the rows the Janson removal deletes.
func (k *Kernel) linkerGates() []gdef {
	snap := func(gateName string, p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
		segName, err := k.readUserString(ctx, args[0], args[1])
		if err != nil {
			return nil, err
		}
		entryName, err := k.readUserString(ctx, args[2], args[3])
		if err != nil {
			return nil, err
		}
		kl := linker.New(&kernelLinkEnv{k: k, p: p}, machine.KernelRing)
		target, err := kl.HandleLinkageFault(ctx, machine.LinkRef{SegName: segName, EntryName: entryName})
		if err != nil {
			// A malstructured symbol table just made privileged code
			// malfunction — the event the paper's review catalogued.
			if errors.Is(err, linker.ErrCorruptSymtab) || errors.Is(err, linker.ErrBadMagic) {
				return nil, k.kernelMalfunction(gateName, err)
			}
			return nil, err
		}
		return ctx.Return(uint64(target.Seg), uint64(target.Entry)), nil
	}
	return []gdef{
		{name: "hcs_$link_snap", cat: gate.CatLinker, bracket: userRing, arity: 4, units: 8,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return snap("hcs_$link_snap", p, ctx, args)
			}},
		{name: "hcs_$link_force", cat: gate.CatLinker, bracket: userRing, arity: 4, units: 4,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return snap("hcs_$link_force", p, ctx, args)
			}},
		{name: "hcs_$get_entry_point", cat: gate.CatLinker, bracket: userRing, arity: 3, units: 5,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				name, err := k.readUserString(ctx, args[1], args[2])
				if err != nil {
					return nil, err
				}
				seg := machine.SegNo(args[0])
				entry, err := linker.FindEntry(func(off int) (uint64, error) { return ctx.Load(seg, off) }, name)
				if err != nil {
					if errors.Is(err, linker.ErrCorruptSymtab) || errors.Is(err, linker.ErrBadMagic) {
						return nil, k.kernelMalfunction("hcs_$get_entry_point", err)
					}
					return nil, err
				}
				return ctx.Return(uint64(entry)), nil
			}},
		{name: "hcs_$get_defname", cat: gate.CatLinker, bracket: userRing, arity: 2, units: 5,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				seg := machine.SegNo(args[0])
				syms, err := linker.ListSymbols(func(off int) (uint64, error) { return ctx.Load(seg, off) })
				if err != nil {
					if errors.Is(err, linker.ErrCorruptSymtab) || errors.Is(err, linker.ErrBadMagic) {
						return nil, k.kernelMalfunction("hcs_$get_defname", err)
					}
					return nil, err
				}
				for _, s := range syms {
					if s.Entry == int(args[1]) {
						off, length, err := k.writeUserString(ctx, s.Name)
						if err != nil {
							return nil, err
						}
						return ctx.Return(off, length), nil
					}
				}
				return nil, fmt.Errorf("core: no symbol for entry %d of segment %d", args[1], args[0])
			}},
		{name: "hcs_$add_search_rule", cat: gate.CatLinker, bracket: userRing, arity: 2, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				_, uid, err := k.treeNameArg(p, ctx, args)
				if err != nil {
					return nil, err
				}
				p.searchDirs = append(p.searchDirs, uid)
				return nil, nil
			}},
		{name: "hcs_$get_search_rules", cat: gate.CatLinker, bracket: userRing, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return ctx.Return(uint64(len(p.searchDirs))), nil
			}},
		{name: "hcs_$reset_search_rules", cat: gate.CatLinker, bracket: userRing, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				p.searchDirs = nil
				return nil, nil
			}},
	}
}
