package core

import (
	"fmt"

	"repro/internal/acl"
	"repro/internal/fs"
	"repro/internal/gate"
	"repro/internal/machine"
)

// fileSystemGates is the directory-control table. Each operation is
// written once; the stage picks only how a gate names its target. Before
// the Bratt removal (S0/S1) every key is a character-string tree name the
// kernel resolves. From S2 a directory is named by its segment number and
// an entry by that number plus the entry name, and the tree walk happens
// in the user ring through the walk gates that open the table.
func (k *Kernel) fileSystemGates() []gdef {
	treeName := fsKey{width: 2, uid: func(p *Proc, ctx *machine.ExecContext, args []uint64) (uint64, error) {
		_, uid, err := k.treeNameArg(p, ctx, args)
		return uid, err
	}}
	dirKey, entryKey := treeName, treeName
	var defs []gdef
	segno := k.cfg.Stage >= S2RefNamesRemoved
	if segno {
		defs = k.walkGates()
		dirKey = fsKey{width: 1, uid: func(p *Proc, ctx *machine.ExecContext, args []uint64) (uint64, error) {
			return k.dirArg(p, args[0])
		}}
		entryKey = fsKey{width: 3, uid: func(p *Proc, ctx *machine.ExecContext, args []uint64) (uint64, error) {
			e, err := k.lookupArg(p, ctx, args)
			if err != nil {
				return 0, err
			}
			if e.IsLink() {
				return 0, fmt.Errorf("core: %q is a link", e.Name)
			}
			return e.UID, nil
		}}
	}
	for _, op := range k.dirOps() {
		key, units := dirKey, op.units[0]
		if op.entry {
			key = entryKey
		}
		if segno {
			units = op.units[1]
		}
		defs = append(defs, gdef{name: op.name, cat: gate.CatFileSystem, bracket: userRing,
			arity: key.width + op.rest, units: units,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := key.uid(p, ctx, args)
				if err != nil {
					return nil, err
				}
				return op.body(p, ctx, uid, args[key.width:])
			}})
	}
	if !segno {
		defs = append(defs, gdef{name: "hcs_$get_uid", cat: gate.CatFileSystem, bracket: userRing,
			arity: treeName.width, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				uid, err := treeName.uid(p, ctx, args)
				if err != nil {
					return nil, err
				}
				return ctx.Return(uid), nil
			}})
	}
	return defs
}

// fsKey decodes the leading width argument words of a directory-control
// gate to the UID of the gate's target.
type fsKey struct {
	width int
	uid   func(p *Proc, ctx *machine.ExecContext, args []uint64) (uint64, error)
}

// dirOp is one directory-control operation, the same at every stage.
type dirOp struct {
	name  string
	rest  int    // argument words after the key
	entry bool   // the key names an entry; otherwise a directory
	units [2]int // declared code units keyed by tree name (S0/S1), by segment number (S2+)
	// body acts on the target whose UID the key decoded; args are the
	// words after the key.
	body func(p *Proc, ctx *machine.ExecContext, uid uint64, args []uint64) ([]uint64, error)
}

// dirOps is the directory-control table, in registration order.
func (k *Kernel) dirOps() []dirOp {
	return []dirOp{
		{name: "hcs_$append_branch", rest: 3, units: [2]int{5, 3},
			body: func(p *Proc, ctx *machine.ExecContext, dir uint64, args []uint64) ([]uint64, error) {
				name, err := k.readUserString(ctx, args[0], args[1])
				if err != nil {
					return nil, err
				}
				kind := fs.KindSegment
				if args[2] != 0 {
					kind = fs.KindDirectory
				}
				uid, err := k.hier.Create(p.Principal, p.Label, dir, name, fs.CreateOptions{
					Kind:  kind,
					Label: p.Label, // created objects carry the creating process's label
				})
				if err != nil {
					return nil, err
				}
				return ctx.Return(uid), nil
			}},
		{name: "hcs_$append_link", rest: 4, units: [2]int{3, 2},
			body: func(p *Proc, ctx *machine.ExecContext, dir uint64, args []uint64) ([]uint64, error) {
				name, err := k.readUserString(ctx, args[0], args[1])
				if err != nil {
					return nil, err
				}
				target, err := k.readUserString(ctx, args[2], args[3])
				if err != nil {
					return nil, err
				}
				return nil, k.hier.AddLink(p.Principal, p.Label, dir, name, target)
			}},
		{name: "hcs_$delete_entry", rest: 2, units: [2]int{4, 2},
			body: func(p *Proc, ctx *machine.ExecContext, dir uint64, args []uint64) ([]uint64, error) {
				name, err := k.readUserString(ctx, args[0], args[1])
				if err != nil {
					return nil, err
				}
				return nil, k.hier.Delete(p.Principal, p.Label, dir, name)
			}},
		{name: "hcs_$list_dir", units: [2]int{4, 2},
			body: func(p *Proc, ctx *machine.ExecContext, dir uint64, args []uint64) ([]uint64, error) {
				names, err := k.hier.List(p.Principal, p.Label, dir, k.names[:0])
				k.names = names
				if err != nil {
					return nil, err
				}
				return k.writeList(ctx, names)
			}},
		{name: "hcs_$add_acl_entry", rest: 3, entry: true, units: [2]int{4, 3},
			body: func(p *Proc, ctx *machine.ExecContext, uid uint64, args []uint64) ([]uint64, error) {
				pat, err := k.patternArg(ctx, args[0], args[1])
				if err != nil {
					return nil, err
				}
				if args[2] > uint64(acl.ModeRead|acl.ModeExecute|acl.ModeWrite|acl.ModeStatus|acl.ModeModify|acl.ModeAppend) {
					return nil, fmt.Errorf("core: invalid mode bits %#x", args[2])
				}
				return nil, k.hier.SetACL(p.Principal, p.Label, uid, pat, acl.Mode(args[2]))
			}},
		{name: "hcs_$delete_acl_entry", rest: 2, entry: true, units: [2]int{3, 2},
			body: func(p *Proc, ctx *machine.ExecContext, uid uint64, args []uint64) ([]uint64, error) {
				pat, err := k.patternArg(ctx, args[0], args[1])
				if err != nil {
					return nil, err
				}
				return nil, k.hier.RemoveACL(p.Principal, p.Label, uid, pat)
			}},
		{name: "hcs_$list_acl", entry: true, units: [2]int{3, 2},
			body: func(p *Proc, ctx *machine.ExecContext, uid uint64, args []uint64) ([]uint64, error) {
				obj, err := k.hier.Object(uid)
				if err != nil {
					return nil, err
				}
				entries := obj.ACLEntries()
				lines := make([]string, len(entries))
				for i, e := range entries {
					lines[i] = e.String()
				}
				return k.writeList(ctx, lines)
			}},
		{name: "hcs_$status", entry: true, units: [2]int{4, 2},
			body: func(p *Proc, ctx *machine.ExecContext, uid uint64, args []uint64) ([]uint64, error) {
				obj, err := k.hier.Object(uid)
				if err != nil {
					return nil, err
				}
				return ctx.Return(kindWord(obj), uint64(obj.BitCount()), obj.UID), nil
			}},
		{name: "hcs_$set_bc", rest: 1, entry: true, units: [2]int{2, 1},
			body: func(p *Proc, ctx *machine.ExecContext, uid uint64, args []uint64) ([]uint64, error) {
				if _, err := k.hier.CheckSegmentAccess(p.Principal, p.Label, uid, acl.ModeWrite); err != nil {
					return nil, err
				}
				return nil, k.hier.SetBitCount(uid, int(args[0]))
			}},
		{name: "hcs_$set_max_length", rest: 1, entry: true, units: [2]int{2, 1},
			body: func(p *Proc, ctx *machine.ExecContext, uid uint64, args []uint64) ([]uint64, error) {
				return nil, k.hier.SetLength(p.Principal, p.Label, uid, int(args[0]))
			}},
	}
}

// walkGates are the S2+ gates through which the user ring walks the tree
// itself: the root directory, one step down into a directory, and one
// entry lookup that reports links instead of following them.
func (k *Kernel) walkGates() []gdef {
	return []gdef{
		{name: "hcs_$root_dir", cat: gate.CatFileSystem, bracket: userRing, units: 1,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				seg, err := k.initiateDir(p, fs.RootUID)
				if err != nil {
					return nil, err
				}
				return ctx.Return(uint64(seg)), nil
			}},
		{name: "hcs_$initiate_dir", cat: gate.CatFileSystem, bracket: userRing, arity: 3, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				e, err := k.lookupArg(p, ctx, args)
				if err != nil {
					return nil, err
				}
				if e.IsLink() {
					return nil, fmt.Errorf("core: %q is a link; resolve it in the user ring", e.Name)
				}
				seg, err := k.initiateDir(p, e.UID)
				if err != nil {
					return nil, err
				}
				return ctx.Return(uint64(seg)), nil
			}},
		{name: "hcs_$lookup_entry", cat: gate.CatFileSystem, bracket: userRing, arity: 3, units: 2,
			impl: func(p *Proc, ctx *machine.ExecContext, args []uint64) ([]uint64, error) {
				e, err := k.lookupArg(p, ctx, args)
				if err != nil {
					return nil, err
				}
				if e.IsLink() {
					off, length, err := k.writeUserString(ctx, e.LinkTo)
					if err != nil {
						return nil, err
					}
					return ctx.Return(0, 2, off, length), nil // isLink marker
				}
				obj, err := k.hier.Object(e.UID)
				if err != nil {
					return nil, err
				}
				return ctx.Return(e.UID, kindWord(obj), 0, 0), nil
			}},
	}
}

// dirArg converts a directory segment-number argument to the directory's
// UID, verifying it really is a known directory of the caller.
func (k *Kernel) dirArg(p *Proc, arg uint64) (uint64, error) {
	uid, ok := p.KST.UIDForSegNo(machine.SegNo(arg))
	if !ok {
		return 0, fmt.Errorf("core: directory segment %d not known", arg)
	}
	obj, err := k.hier.Object(uid)
	if err != nil {
		return 0, err
	}
	if obj.Kind != fs.KindDirectory {
		return 0, fmt.Errorf("%w: segment %d", fs.ErrNotDirectory, arg)
	}
	return uid, nil
}

// lookupArg decodes (dirSegno, nameOff, nameLen) and looks the named
// entry up: one step of the user-ring tree walk (S2+). The name is looked
// up in the bytes the load run read, so a hit makes no string.
func (k *Kernel) lookupArg(p *Proc, ctx *machine.ExecContext, args []uint64) (fs.DirEntry, error) {
	dir, err := k.dirArg(p, args[0])
	if err != nil {
		return fs.DirEntry{}, err
	}
	name, err := k.readUserBytes(ctx, args[1], args[2])
	if err != nil {
		return fs.DirEntry{}, err
	}
	return k.hier.LookupBytes(p.Principal, p.Label, dir, name)
}

// patternArg decodes a (patternOff, patternLen) pair into an ACL pattern.
func (k *Kernel) patternArg(ctx *machine.ExecContext, off, length uint64) (acl.Pattern, error) {
	s, err := k.readUserString(ctx, off, length)
	if err != nil {
		return acl.Pattern{}, err
	}
	return acl.ParsePattern(s)
}

// writeList writes lines, newline-separated, into the caller's result
// area and returns (offset, length, count).
func (k *Kernel) writeList(ctx *machine.ExecContext, lines []string) ([]uint64, error) {
	off, length, err := k.writeUserString(ctx, lines...)
	if err != nil {
		return nil, err
	}
	return ctx.Return(off, length, uint64(len(lines))), nil
}

// kindWord is the status word for an object's kind: 1 for a directory,
// 0 for a segment.
func kindWord(obj *fs.Object) uint64 {
	if obj.Kind == fs.KindDirectory {
		return 1
	}
	return 0
}
