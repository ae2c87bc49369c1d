// Package userspace is the non-kernel system-provided library: the code
// that executes "as an unprotected part of each user's computation" after
// the paper's removal projects. It contains, per process:
//
//   - tree-name resolution over the kernel's segment-number-keyed directory
//     gates (the algorithm the Bratt project removed from ring 0);
//   - the private reference-name space;
//   - the user-ring dynamic linker environment (the Janson removal);
//   - the answering-service subsystem that performs login from ring 2 with
//     only a create-process gate left in the kernel (the login demotion).
//
// Errors here damage only the process (or subsystem) that owns the state —
// that is the paper's entire point. None of this code is part of the
// security kernel, and none of it can reach kernel data except through the
// gates.
package userspace

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/linker"
	"repro/internal/machine"
	"repro/internal/refname"
)

// maxLinkDepth bounds link chasing during user-ring resolution.
const maxLinkDepth = 8

// Env is one process's user-ring support environment.
type Env struct {
	P *core.Proc
	// Names is the private reference-name space (meaningful from S2 on;
	// before that the kernel holds the names).
	Names *refname.Manager
	// SearchRules is the ordered list of directory tree names the linker
	// searches.
	SearchRules []string

	// dirCache caches initiated directory segment numbers by path.
	dirCache map[string]machine.SegNo
}

// NewEnv builds the support environment for p and, from S1 on, installs
// the user-ring linker on the process.
func NewEnv(p *core.Proc) *Env {
	e := &Env{P: p, Names: refname.New(), dirCache: make(map[string]machine.SegNo)}
	if p.Stage() >= core.S1LinkerRemoved {
		p.CPU.Linker = linker.New(&userLinkEnv{env: e}, p.CPU.Ring())
	}
	return e
}

// rootDir returns the segment number of the root directory, initiating it
// on first use.
func (e *Env) rootDir() (machine.SegNo, error) {
	if seg, ok := e.dirCache[">"]; ok {
		return seg, nil
	}
	out, err := e.P.CallGate("hcs_$root_dir")
	if err != nil {
		return 0, err
	}
	seg := machine.SegNo(out[0])
	e.dirCache[">"] = seg
	return seg, nil
}

// initiateDir walks to the directory named by path (which must name a
// directory), initiating each component, and returns its segment number.
func (e *Env) initiateDir(path string) (machine.SegNo, error) {
	if seg, ok := e.dirCache[path]; ok {
		return seg, nil
	}
	if err := checkPath(path); err != nil {
		return 0, err
	}
	cur, err := e.rootDir()
	if err != nil {
		return 0, err
	}
	// Each component is initiated from the root down, and each walked
	// prefix of path is cached under its own tree name.
	for start := 1; start < len(path); {
		end := len(path)
		if i := strings.IndexByte(path[start:], '>'); i >= 0 {
			end = start + i
		}
		name := path[start:end]
		nOff, nLen, err := e.P.GateString(name)
		if err != nil {
			return 0, err
		}
		out, err := e.P.CallGate("hcs_$initiate_dir", uint64(cur), nOff, nLen)
		if err != nil {
			return 0, fmt.Errorf("userspace: walking %q at %q: %w", path, name, err)
		}
		cur = machine.SegNo(out[0])
		e.dirCache[path[:end]] = cur
		start = end + 1
	}
	return cur, nil
}

// InitiateDir walks to the directory named by path and returns its segment
// number (S2+ only; earlier stages have no directory segment numbers).
func (e *Env) InitiateDir(path string) (machine.SegNo, error) {
	if e.P.Stage() < core.S2RefNamesRemoved {
		return 0, errors.New("userspace: directory segment numbers exist only from S2 on")
	}
	return e.initiateDir(path)
}

// ResolvePath finds the UID of the object named by an absolute tree name.
// Before S2 it asks the kernel (hcs_$get_uid); from S2 on it performs the
// walk itself over the per-directory gates, chasing links in the user
// ring.
func (e *Env) ResolvePath(path string) (uint64, error) {
	return e.resolvePath(path, 0)
}

func (e *Env) resolvePath(path string, depth int) (uint64, error) {
	if depth > maxLinkDepth {
		return 0, fmt.Errorf("userspace: too many links resolving %q", path)
	}
	if e.P.Stage() < core.S2RefNamesRemoved {
		pOff, pLen, err := e.P.GateString(path)
		if err != nil {
			return 0, err
		}
		out, err := e.P.CallGate("hcs_$get_uid", pOff, pLen)
		if err != nil {
			return 0, err
		}
		return out[0], nil
	}
	if err := checkPath(path); err != nil {
		return 0, err
	}
	if path == ">" {
		return 0, errors.New("userspace: the root has no UID-returning gate; directories are named by segment number")
	}
	// A valid path other than the root cuts at its last ">" into the
	// containing directory's tree name and the entry name.
	i := strings.LastIndexByte(path, '>')
	dirPath, name := path[:i], path[i+1:]
	if i == 0 {
		dirPath = ">"
	}
	dirSeg, err := e.initiateDir(dirPath)
	if err != nil {
		return 0, err
	}
	nOff, nLen, err := e.P.GateString(name)
	if err != nil {
		return 0, err
	}
	out, err := e.P.CallGate("hcs_$lookup_entry", uint64(dirSeg), nOff, nLen)
	if err != nil {
		return 0, err
	}
	if out[1] == 2 { // link: chase it here, in the user ring
		target, err := e.P.ReadArgString(out[2], out[3])
		if err != nil {
			return 0, err
		}
		return e.resolvePath(target, depth+1)
	}
	return out[0], nil
}

// Initiate makes the segment at path known, optionally binding ref in this
// ring's private name space, and returns the segment number.
func (e *Env) Initiate(path, ref string) (machine.SegNo, error) {
	if e.P.Stage() < core.S2RefNamesRemoved {
		pOff, pLen, err := e.P.GateString(path)
		if err != nil {
			return 0, err
		}
		var rOff, rLen uint64
		if ref != "" {
			rOff, rLen, err = e.P.GateString(ref)
			if err != nil {
				return 0, err
			}
		}
		out, err := e.P.CallGate("hcs_$initiate", pOff, pLen, rOff, rLen)
		if err != nil {
			return 0, err
		}
		return machine.SegNo(out[0]), nil
	}
	uid, err := e.ResolvePath(path)
	if err != nil {
		return 0, err
	}
	out, err := e.P.CallGate("hcs_$initiate_uid", uid)
	if err != nil {
		return 0, err
	}
	seg := machine.SegNo(out[0])
	if ref != "" {
		if _, bound := e.Names.Resolve(ref); !bound {
			if err := e.Names.Bind(ref, seg); err != nil {
				return 0, err
			}
		}
	}
	return seg, nil
}

// Terminate makes a segment unknown and clears its private names.
func (e *Env) Terminate(seg machine.SegNo) error {
	e.Names.UnbindSegno(seg)
	_, err := e.P.CallGate("hcs_$terminate_seg", uint64(seg))
	return err
}

// userLinkEnv is the user-ring linker environment: the search happens with
// the user's own access rights, through gates only. At S1 (linker removed,
// naming still kernel-resident) initiation goes through the path-keyed
// gate; from S2 on it uses the narrow UID-keyed gate.
type userLinkEnv struct {
	env *Env
	// lastPath remembers where LookupSegment found each UID, because the
	// S1 kernel interface initiates by path, not by UID.
	lastPath map[uint64]string
}

var _ linker.Environment = (*userLinkEnv)(nil)

// LookupSegment implements linker.Environment.
func (u *userLinkEnv) LookupSegment(name string) (uint64, error) {
	for _, dir := range u.env.SearchRules {
		path := dir + ">" + name
		if dir == ">" {
			path = ">" + name
		}
		uid, err := u.env.ResolvePath(path)
		if err == nil {
			if u.lastPath == nil {
				u.lastPath = make(map[uint64]string)
			}
			u.lastPath[uid] = path
			return uid, nil
		}
	}
	return 0, linker.ErrSegmentNotFound
}

// Initiate implements linker.Environment.
func (u *userLinkEnv) Initiate(uid uint64) (machine.SegNo, error) {
	if u.env.P.Stage() < core.S2RefNamesRemoved {
		path, ok := u.lastPath[uid]
		if !ok {
			return 0, fmt.Errorf("userspace: no known path for uid %#x", uid)
		}
		return u.env.Initiate(path, "")
	}
	out, err := u.env.P.CallGate("hcs_$initiate_uid", uid)
	if err != nil {
		return 0, err
	}
	return machine.SegNo(out[0]), nil
}

// checkPath validates an absolute tree name: it begins with ">" and has
// no empty component. The root, ">", is valid.
func checkPath(path string) error {
	if !strings.HasPrefix(path, ">") {
		return fmt.Errorf("userspace: %q is not an absolute tree name", path)
	}
	if strings.Contains(path, ">>") || len(path) > 1 && strings.HasSuffix(path, ">") {
		return fmt.Errorf("userspace: empty component in %q", path)
	}
	return nil
}
