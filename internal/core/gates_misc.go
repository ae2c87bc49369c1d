package core

import (
	"fmt"

	"repro/internal/acl"
	"repro/internal/gate"
	"repro/internal/iosys"
	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mls"
)

// processGates is the process and IPC table, identical in shape at every
// stage: the new base-level IPC whose use is governed by the standard
// memory protection on the channel's governing segment.
func (k *Kernel) processGates() []gdef {
	return []gdef{
		{name: "hcs_$create_ev_chn", cat: gate.CatIPC, bracket: userRing, arity: 1, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, ok := p.KST.UIDForSegNo(machine.SegNo(args[0]))
				if !ok {
					return nil, fmt.Errorf("core: segment %d not known", args[0])
				}
				id, err := k.createChannel(p, uid)
				if err != nil {
					return nil, err
				}
				return ctx.Return(id), nil
			}},
		{name: "hcs_$delete_ev_chn", cat: gate.CatIPC, bracket: userRing, arity: 1, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return nil, k.deleteChannel(p, args[0])
			}},
		{name: "hcs_$wakeup", cat: gate.CatIPC, bracket: userRing, arity: 2, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				kc, err := k.channelByID(p, args[0], acl.ModeWrite)
				if err != nil {
					return nil, err
				}
				var sp = p.sched
				return nil, kc.ch.Signal(sp, ipc.Event{From: p.Name, Data: args[1]})
			}},
		{name: "hcs_$block", cat: gate.CatProcess, bracket: userRing, arity: 1, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				kc, err := k.channelByID(p, args[0], acl.ModeRead)
				if err != nil {
					return nil, err
				}
				if p.pc == nil {
					return nil, fmt.Errorf("core: hcs_$block requires a scheduled process (use Proc.Run)")
				}
				ev, err := kc.ch.Await(p.pc)
				if err != nil {
					return nil, err
				}
				return ctx.Return(ev.Data), nil
			}},
		{name: "hcs_$read_events", cat: gate.CatIPC, bracket: userRing, arity: 1, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				kc, err := k.channelByID(p, args[0], acl.ModeRead)
				if err != nil {
					return nil, err
				}
				return ctx.Return(uint64(kc.ch.Pending())), nil
			}},
		{name: "hcs_$set_timer", cat: gate.CatProcess, bracket: userRing, arity: 3, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				kc, err := k.channelByID(p, args[1], acl.ModeWrite)
				if err != nil {
					return nil, err
				}
				data := args[2]
				k.sch.At(k.clock.Now()+int64(args[0]), func() {
					_ = kc.ch.Signal(nil, ipc.Event{From: "timer", Data: data})
				})
				return nil, nil
			}},
		{name: "hcs_$get_usage", cat: gate.CatProcess, bracket: userRing, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				var cycles int64
				if p.sched != nil {
					cycles = p.sched.CPUCycles
				}
				return ctx.Return(uint64(cycles)), nil
			}},
		{name: "hcs_$get_process_id", cat: gate.CatProcess, bracket: userRing, units: 1,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return ctx.Return(p.id), nil
			}},
	}
}

// ioGates is the external I/O table of the stage, built from per-verb row
// factories: the attach/read/write/detach/status shapes are identical
// across device classes, only the name, class, and weight vary.
func (k *Kernel) ioGates() []gdef {
	mkAttach := func(name string, class iosys.DeviceClass, units int) gdef {
		return gdef{name: name, cat: gate.CatIO, bracket: userRing, units: units,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				id, err := k.devices.attach(p, class)
				if err != nil {
					return nil, err
				}
				return ctx.Return(id), nil
			}}
	}
	mkRead := func(name string, units int) gdef {
		return gdef{name: name, cat: gate.CatIO, bracket: userRing, arity: 1, units: units,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				d, err := k.devices.lookup(p, args[0])
				if err != nil {
					return nil, err
				}
				m, ok, err := d.buf.Get()
				if err != nil {
					return nil, err
				}
				if !ok {
					return ctx.Return(0, 0), nil
				}
				return ctx.Return(m.Data, 1), nil
			}}
	}
	mkWrite := func(name string, units int) gdef {
		return gdef{name: name, cat: gate.CatIO, bracket: userRing, arity: 2, units: units,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				if _, err := k.devices.lookup(p, args[0]); err != nil {
					return nil, err
				}
				// Output is a sink in this model; latency is charged.
				k.clock.Advance(5)
				return nil, nil
			}}
	}
	mkDetach := func(name string, units int) gdef {
		return gdef{name: name, cat: gate.CatIO, bracket: userRing, arity: 1, units: units,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return nil, k.devices.detach(p, args[0])
			}}
	}
	mkStatus := func(name string, units int) gdef {
		return gdef{name: name, cat: gate.CatIO, bracket: userRing, arity: 1, units: units,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				d, err := k.devices.lookup(p, args[0])
				if err != nil {
					return nil, err
				}
				return ctx.Return(uint64(d.buf.Len()), uint64(d.buf.Lost())), nil
			}}
	}

	if k.cfg.Stage >= S5IOConsolidated {
		// The single network-attachment path.
		return []gdef{
			mkAttach("net_$attach", iosys.DevNetwork, 5),
			mkRead("net_$read", 4),
			mkWrite("net_$write", 2),
			mkDetach("net_$detach", 1),
			mkStatus("net_$status", 1),
		}
	}
	// The legacy per-device-class drivers.
	return []gdef{
		mkAttach("ios_$tty_attach", iosys.DevTerminal, 4),
		mkRead("ios_$tty_read", 4),
		mkWrite("ios_$tty_write", 3),
		mkWrite("ios_$tty_order", 3),
		mkDetach("ios_$tty_detach", 1),
		mkAttach("ios_$tape_attach", iosys.DevTape, 4),
		mkRead("ios_$tape_read", 3),
		mkWrite("ios_$tape_write", 3),
		mkAttach("ios_$crd_attach", iosys.DevCardReader, 3),
		mkRead("ios_$crd_read", 3),
		mkAttach("ios_$cpn_attach", iosys.DevCardPunch, 3),
		mkWrite("ios_$cpn_write", 3),
		mkAttach("ios_$prt_attach", iosys.DevPrinter, 4),
		mkWrite("ios_$prt_write", 4),
	}
}

// loginGates is the privileged answering-service table of the baseline
// kernel (S0–S3). From S4 the answering service is an unprivileged
// subsystem and these gates no longer exist.
func (k *Kernel) loginGates() []gdef {
	return []gdef{
		{name: "as_$login", cat: gate.CatLogin, bracket: userRing, arity: 7, units: 10,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				person, project, password, label, err := k.loginArgs(ctx, args)
				if err != nil {
					return nil, err
				}
				sess, err := k.answer.Login(person, project, password, label)
				if err != nil {
					return nil, err
				}
				np, err := k.CreateProcess(sess.Principal.String(), sess.Principal, sess.Label, machine.UserRing)
				if err != nil {
					return nil, err
				}
				return ctx.Return(np.id), nil
			}},
		{name: "as_$logout", cat: gate.CatLogin, bracket: userRing, units: 3,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return nil, nil
			}},
		{name: "as_$change_password", cat: gate.CatLogin, bracket: userRing, arity: 4, units: 5,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				oldPw, err := k.readUserString(ctx, args[0], args[1])
				if err != nil {
					return nil, err
				}
				newPw, err := k.readUserString(ctx, args[2], args[3])
				if err != nil {
					return nil, err
				}
				return nil, k.registry.ChangePassword(p.Principal.Person, oldPw, newPw)
			}},
		{name: "as_$new_proc", cat: gate.CatLogin, bracket: userRing, units: 4,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				np, err := k.CreateProcess(p.Name+".new", p.Principal, p.Label, machine.UserRing)
				if err != nil {
					return nil, err
				}
				return ctx.Return(np.id), nil
			}},
	}
}

// loginArgs decodes a login's arguments in order: the person and project
// names, the password when the gate takes one (as_$login's seven words;
// phcs_$create_process has five), and the requested level in the last
// word. The results are meaningless when err is not nil.
func (k *Kernel) loginArgs(ctx *machine.ExecContext, args []uint64) (person, project, password string, label mls.Label, err error) {
	if person, err = k.readUserString(ctx, args[0], args[1]); err != nil {
		return
	}
	if project, err = k.readUserString(ctx, args[2], args[3]); err != nil {
		return
	}
	if len(args) == 7 {
		if password, err = k.readUserString(ctx, args[4], args[5]); err != nil {
			return
		}
	}
	label, err = labelForLevel(args[len(args)-1])
	return
}

// labelForLevel builds an MLS label from a packed level word (level only;
// compartments are set by richer interfaces).
func labelForLevel(level uint64) (mls.Label, error) {
	if level > uint64(mls.TopSecret) {
		return mls.Label{}, fmt.Errorf("core: invalid level %d", level)
	}
	return mls.NewLabel(mls.Level(level)), nil
}

// miscGates is the small status table present at every stage.
func (k *Kernel) miscGates() []gdef {
	return []gdef{
		{name: "hcs_$get_system_info", cat: gate.CatMisc, bracket: userRing, units: 2, anon: true,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return ctx.Return(uint64(k.cfg.Stage), uint64(k.clock.Now())), nil
			}},
		{name: "hcs_$get_authorization", cat: gate.CatMisc, bracket: userRing, units: 1,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return ctx.Return(uint64(p.Label.Level)), nil
			}},
		{name: "hcs_$total_cpu_time", cat: gate.CatMisc, bracket: userRing, units: 1, anon: true,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return ctx.Return(uint64(k.clock.Now())), nil
			}},
	}
}

// privilegedGates is the phcs_ table: entries reachable only from inner
// non-kernel rings (the policy ring and protected subsystems in ring 2),
// never from the user ring — the hardware gate brackets enforce it.
func (k *Kernel) privilegedGates() []gdef {
	return []gdef{
		{name: "phcs_$create_process", cat: gate.CatProcess, bracket: machine.SupervisorRing, arity: 5, units: 4,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				person, project, _, label, err := k.loginArgs(ctx, args)
				if err != nil {
					return nil, err
				}
				// The calling subsystem vouches for authentication; the kernel
				// still refuses labels above the registered clearance.
				clearance, err := k.registry.Clearance(person)
				if err != nil {
					return nil, err
				}
				if !clearance.Dominates(label) {
					return nil, fmt.Errorf("core: label %v above clearance %v", label, clearance)
				}
				who := acl.Principal{Person: person, Project: project, Tag: "a"}
				np, err := k.CreateProcess(who.String(), who, label, machine.UserRing)
				if err != nil {
					return nil, err
				}
				return ctx.Return(np.id), nil
			}},
		{name: "phcs_$ring0_peek", cat: gate.CatMisc, bracket: machine.SupervisorRing, arity: 1, units: 2, anon: true,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				// Reads raw frame metadata for system debugging.
				f, err := k.store.FrameInfo(mem.FrameID(args[0]))
				if err != nil {
					return nil, err
				}
				var bits uint64
				if !f.Free {
					bits = 1
				}
				return ctx.Return(bits, f.PID.SegUID), nil
			}},
		{name: "phcs_$wire_frame", cat: gate.CatMisc, bracket: machine.SupervisorRing, arity: 2, units: 2, anon: true,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return nil, k.store.Wire(mem.FrameID(args[0]), args[1] != 0)
			}},
		{name: "phcs_$set_clock", cat: gate.CatMisc, bracket: machine.SupervisorRing, arity: 1, units: 1, anon: true,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				k.clock.AdvanceTo(int64(args[0]))
				return nil, nil
			}},
		{name: "phcs_$salvage", cat: gate.CatMisc, bracket: machine.SupervisorRing, arity: 1, units: 3, anon: true,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				// Hierarchy consistency sweep (the salvager): arg 0 non-zero
				// requests repair. Returns objects walked, problems found, and
				// problems repaired.
				rep, err := k.hier.Salvage(args[0] != 0)
				if err != nil {
					return nil, err
				}
				repaired := 0
				for _, pr := range rep.Problems {
					if pr.Repaired {
						repaired++
					}
				}
				return ctx.Return(uint64(rep.ObjectsWalked), uint64(len(rep.Problems)), uint64(repaired)), nil
			}},
		{name: "phcs_$reclassify", cat: gate.CatMisc, bracket: machine.SupervisorRing, arity: 2, units: 2, anon: true,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				label, err := labelForLevel(args[1])
				if err != nil {
					return nil, err
				}
				if err := k.hier.Reclassify(args[0], label); err != nil {
					return nil, err
				}
				return nil, nil
			}},
		{name: "phcs_$shutdown", cat: gate.CatMisc, bracket: machine.SupervisorRing, units: 2, anon: true,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				return nil, nil // orderly-shutdown marker
			}},
	}
}
