// Package multics is the public face of the reproduction: a complete
// simulated Multics system built around the security kernel of
// internal/core, at any stage of the paper's kernel-reduction programme.
//
// A System is one booted machine. Users are registered with AddUser and
// logged in with Login, which yields a Session: a Multics process plus its
// user-ring support environment. Sessions operate on the file hierarchy,
// share segments through ACLs, snap dynamic links, and communicate over
// event channels — always through the kernel's gates, with every protection
// check enforced by the simulated hardware.
//
//	sys, _ := multics.New(multics.StageRestructured)
//	defer sys.Shutdown()
//	sys.AddUser("Schroeder", "CSR", "multics75", multics.Secret)
//	sess, _ := sys.Login("Schroeder", "CSR", "multics75", multics.Unclassified)
//	sess.MakeDir(">udd")
//	sess.CreateSegment(">udd>notes", 128)
package multics

import (
	"fmt"
	"strings"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/gate"
	"repro/internal/linker"
	"repro/internal/machine"
	"repro/internal/mls"
	"repro/internal/netattach"
	"repro/internal/userspace"
)

// Stage re-exports the kernel configuration stages.
type Stage = core.Stage

// The kernel-reduction stages, from the full 645-era supervisor to the
// restructured kernel.
const (
	StageBaseline        = core.S0Baseline
	StageLinkerRemoved   = core.S1LinkerRemoved
	StageRefNamesRemoved = core.S2RefNamesRemoved
	StageInitRemoved     = core.S3InitRemoved
	StageLoginDemoted    = core.S4LoginDemoted
	StageIOConsolidated  = core.S5IOConsolidated
	StageRestructured    = core.S6Restructured
)

// Level re-exports the mandatory classification levels.
type Level = mls.Level

// Classification levels.
const (
	Unclassified = mls.Unclassified
	Confidential = mls.Confidential
	Secret       = mls.Secret
	TopSecret    = mls.TopSecret
)

// System is one booted Multics machine.
type System struct {
	Kernel    *core.Kernel
	answering *userspace.AnsweringSubsystem
	frontend  *netattach.Frontend
}

// New boots a system at the given stage.
func New(stage Stage) (*System, error) {
	return NewWithConfig(core.Config{Stage: stage})
}

// NewWithConfig boots a system with full configuration control.
func NewWithConfig(cfg core.Config) (*System, error) {
	k, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	s, err := Adopt(k)
	if err != nil {
		k.Shutdown()
	}
	return s, err
}

// Shutdown closes the network front-end (if serving) and stops the
// system's kernel processes.
func (s *System) Shutdown() {
	if s.frontend != nil {
		_ = s.frontend.Close()
		s.frontend = nil
	}
	s.Kernel.Shutdown()
}

// Serve starts the network attachment front-end: the listener kernel
// process, the connection table, and the session-multiplexer worker pool.
// At S5 and later connections ride the consolidated attachment path
// (net_$ gates, infinite VM-backed buffers); before S5 they ride the
// legacy per-device drivers with fixed circular buffers, which lose
// messages under storm. Call at most once per system.
func (s *System) Serve(cfg netattach.Config) (*netattach.Frontend, error) {
	if s.frontend != nil {
		return nil, fmt.Errorf("multics: system is already serving")
	}
	fe, err := netattach.New(s.Kernel, s.createProcess, cfg)
	if err != nil {
		return nil, err
	}
	s.frontend = fe
	return fe, nil
}

// Frontend returns the serving front-end, or nil before Serve.
func (s *System) Frontend() *netattach.Frontend { return s.frontend }

// Attach dials the serving front-end and returns the attached connection:
// the network analogue of Login. Serve must have been called.
func (s *System) Attach(person, project, password string, level Level) (*netattach.Conn, error) {
	if s.frontend == nil {
		if _, err := s.Serve(netattach.Config{}); err != nil {
			return nil, err
		}
	}
	return s.frontend.Dial(person, project, password, level)
}

// AddUser registers a user with the answering service.
func (s *System) AddUser(person, project, password string, clearance Level) error {
	return s.Kernel.Services().Users.AddUser(person, project, password, mls.NewLabel(clearance))
}

// Login authenticates and creates a process, using the stage-appropriate
// path: the privileged as_$login gate before S4, the ring-2 answering
// subsystem after. It returns a ready Session.
func (s *System) Login(person, project, password string, level Level) (*Session, error) {
	p, err := s.createProcess(person, project, password, level)
	if err != nil {
		return nil, err
	}
	return &Session{sys: s, Proc: p, Env: userspace.NewEnv(p)}, nil
}

// createProcess is the half of Login that authenticates and creates the
// process, without the user-ring environment; network logins use it.
// Before S4 it calls the privileged as_$login gate from an initializer
// process, which it destroys on every path.
func (s *System) createProcess(person, project, password string, level Level) (p *core.Proc, err error) {
	if s.answering != nil {
		return s.answering.Login(person, project, password, level)
	}
	init, err := s.Kernel.CreateProcess("initializer",
		acl.Principal{Person: "Initializer", Project: "Sys", Tag: "z"},
		mls.NewLabel(TopSecret), machine.UserRing)
	if err != nil {
		return nil, err
	}
	defer func() {
		if derr := s.Kernel.DestroyProcess(init); derr != nil && err == nil {
			p, err = nil, derr
		}
	}()
	args := make([]uint64, 0, 7)
	for _, str := range [...]string{person, project, password} {
		off, n, err := init.GateString(str)
		if err != nil {
			return nil, err
		}
		args = append(args, off, n)
	}
	out, err := init.CallGate("as_$login", append(args, uint64(level))...)
	if err != nil {
		return nil, err
	}
	p, ok := s.Kernel.Process(out[0])
	if !ok {
		return nil, fmt.Errorf("multics: as_$login returned process %d, which is not live", out[0])
	}
	return p, nil
}

// InstallProgram places an executable segment with a symbol table into the
// hierarchy (the trusted compiler/installation path). Sessions then call it
// by symbolic reference.
func (s *System) InstallProgram(owner *Session, dirPath, name string,
	proc *machine.Procedure, symbols []linker.Symbol) error {
	dirUID, err := s.Kernel.Services().Hierarchy.ResolvePath(owner.Proc.Principal, owner.Proc.Label, dirPath)
	if err != nil {
		return err
	}
	_, err = s.Kernel.InstallProgram(owner.Proc.Principal, owner.Proc.Label, dirUID, name, proc, symbols,
		fs.CreateOptions{Label: owner.Proc.Label, ACL: acl.New(acl.Entry{
			Who:  acl.Pattern{Person: acl.Wildcard, Project: acl.Wildcard, Tag: acl.Wildcard},
			Mode: acl.ModeRead | acl.ModeExecute,
		})})
	return err
}

// Session is a logged-in user: a process plus its user-ring environment.
type Session struct {
	sys  *System
	Proc *core.Proc
	Env  *userspace.Env
}

// Principal returns the session's principal identifier string.
func (se *Session) Principal() string { return se.Proc.Principal.String() }

// splitParent returns the parent path and final component of path.
func splitParent(path string) (string, string, error) {
	if !strings.HasPrefix(path, ">") || path == ">" {
		return "", "", fmt.Errorf("multics: %q is not an absolute non-root tree name", path)
	}
	i := strings.LastIndex(path, ">")
	parent := path[:i]
	if parent == "" {
		parent = ">"
	}
	name := path[i+1:]
	if name == "" {
		return "", "", fmt.Errorf("multics: %q has an empty final component", path)
	}
	return parent, name, nil
}

// gateArgs is a gate's argument list, built in the caller's frame: no
// gate accepts more than gate.MaxArgs words, and CallGate copies the list
// into the call frame, so the list never reaches the heap.
type gateArgs struct {
	w [gate.MaxArgs]uint64
	n int
}

// words returns the argument list.
func (a *gateArgs) words() []uint64 { return a.w[:a.n] }

// keyArgs builds a gate's argument list: key, then rest.
func keyArgs(rest []uint64, key ...uint64) gateArgs {
	var a gateArgs
	a.n = copy(a.w[:], key)
	a.n += copy(a.w[a.n:], rest)
	return a
}

// dirKey returns the argument list of a directory-control gate whose key
// names the directory at path, followed by rest: the directory's tree
// name before S2, its segment number from S2.
func (se *Session) dirKey(path string, rest ...uint64) (gateArgs, error) {
	if se.Proc.Stage() < core.S2RefNamesRemoved {
		return se.treeNameKey(path, rest)
	}
	dirSeg, err := se.Env.InitiateDir(path)
	if err != nil {
		return gateArgs{}, err
	}
	return keyArgs(rest, uint64(dirSeg)), nil
}

// entryKey returns the argument list of a directory-control gate whose
// key names the entry at path, followed by rest: the entry's tree name
// before S2, its directory's segment number and its name from S2.
func (se *Session) entryKey(path string, rest ...uint64) (gateArgs, error) {
	if se.Proc.Stage() < core.S2RefNamesRemoved {
		return se.treeNameKey(path, rest)
	}
	parent, name, err := splitParent(path)
	if err != nil {
		return gateArgs{}, err
	}
	dirSeg, err := se.Env.InitiateDir(parent)
	if err != nil {
		return gateArgs{}, err
	}
	nOff, nLen, err := se.Proc.GateString(name)
	if err != nil {
		return gateArgs{}, err
	}
	return keyArgs(rest, uint64(dirSeg), nOff, nLen), nil
}

// treeNameKey is the S0/S1 key of dirKey and entryKey: the tree name,
// passed in the argument segment.
func (se *Session) treeNameKey(path string, rest []uint64) (gateArgs, error) {
	pOff, pLen, err := se.Proc.GateString(path)
	if err != nil {
		return gateArgs{}, err
	}
	return keyArgs(rest, pOff, pLen), nil
}

// create issues the append_branch gate call; kind is the gate's kind
// word, 1 for a directory and 0 for a segment.
func (se *Session) create(path string, kind uint64) error {
	parent, name, err := splitParent(path)
	if err != nil {
		return err
	}
	nOff, nLen, err := se.Proc.GateString(name)
	if err != nil {
		return err
	}
	args, err := se.dirKey(parent, nOff, nLen, kind)
	if err != nil {
		return err
	}
	_, err = se.Proc.CallGate("hcs_$append_branch", args.words()...)
	return err
}

// MakeDir creates a directory at path.
func (se *Session) MakeDir(path string) error { return se.create(path, 1) }

// CreateSegment creates a data segment of the given length in words.
func (se *Session) CreateSegment(path string, words int) error {
	if err := se.create(path, 0); err != nil {
		return err
	}
	args, err := se.entryKey(path, uint64(words))
	if err != nil {
		return err
	}
	_, err = se.Proc.CallGate("hcs_$set_max_length", args.words()...)
	return err
}

// Segment is an initiated segment: reads and writes go through the
// process's descriptor segment, so the kernel-computed access applies.
type Segment struct {
	se  *Session
	Seg machine.SegNo
}

// Open initiates the segment at path (with an optional reference name) and
// returns a handle.
func (se *Session) Open(path, refName string) (*Segment, error) {
	seg, err := se.Env.Initiate(path, refName)
	if err != nil {
		return nil, err
	}
	return &Segment{se: se, Seg: seg}, nil
}

// ReadWord reads one word.
func (sg *Segment) ReadWord(off int) (uint64, error) {
	return sg.se.Proc.CPU.Load(sg.Seg, off)
}

// WriteWord writes one word.
func (sg *Segment) WriteWord(off int, val uint64) error {
	return sg.se.Proc.CPU.Store(sg.Seg, off, val)
}

// Close terminates the segment.
func (sg *Segment) Close() error { return sg.se.Env.Terminate(sg.Seg) }

// SetACL grants mode (e.g. "rw", "sma", "null") on path to the principal
// pattern (e.g. "Bob.*.*").
func (se *Session) SetACL(path, pattern, mode string) error {
	m, err := acl.ParseMode(mode)
	if err != nil {
		return err
	}
	patOff, patLen, err := se.Proc.GateString(pattern)
	if err != nil {
		return err
	}
	args, err := se.entryKey(path, patOff, patLen, uint64(m))
	if err != nil {
		return err
	}
	_, err = se.Proc.CallGate("hcs_$add_acl_entry", args.words()...)
	return err
}

// List returns the entry names of the directory at path.
func (se *Session) List(path string) ([]string, error) {
	args, err := se.dirKey(path)
	if err != nil {
		return nil, err
	}
	out, err := se.Proc.CallGate("hcs_$list_dir", args.words()...)
	if err != nil {
		return nil, err
	}
	if out[2] == 0 {
		return nil, nil
	}
	joined, err := se.Proc.ReadArgString(out[0], out[1])
	if err != nil {
		return nil, err
	}
	return strings.Split(joined, "\n"), nil
}

// SetSearchRules installs the directories the linker searches.
func (se *Session) SetSearchRules(dirs ...string) error {
	se.Env.SearchRules = dirs
	if se.Proc.Stage() >= core.S1LinkerRemoved {
		return nil
	}
	// The baseline keeps the rules in the kernel.
	if _, err := se.Proc.CallGate("hcs_$reset_search_rules"); err != nil {
		return err
	}
	for _, d := range dirs {
		dOff, dLen, err := se.Proc.GateString(d)
		if err != nil {
			return err
		}
		if _, err := se.Proc.CallGate("hcs_$add_search_rule", dOff, dLen); err != nil {
			return err
		}
	}
	return nil
}

// Call invokes entry of the named program segment by symbolic reference,
// snapping the link on first use through the stage-appropriate linker.
func (se *Session) Call(segName, entryName string, args ...uint64) ([]uint64, error) {
	ref := machine.LinkRef{SegName: segName, EntryName: entryName}
	if se.Proc.Stage() < core.S1LinkerRemoved {
		// Snap through the kernel linker gate, then call directly.
		if target, ok := se.Proc.CPU.SnappedLink(core.SegArgs, ref); ok {
			return se.Proc.CPU.Call(target.Seg, target.Entry, args)
		}
		sOff, sLen, err := se.Proc.GateString(segName)
		if err != nil {
			return nil, err
		}
		eOff, eLen, err := se.Proc.GateString(entryName)
		if err != nil {
			return nil, err
		}
		out, err := se.Proc.CallGate("hcs_$link_snap", sOff, sLen, eOff, eLen)
		if err != nil {
			return nil, err
		}
		target := machine.LinkTarget{Seg: machine.SegNo(out[0]), Entry: int(out[1])}
		se.Proc.CPU.SnapLink(core.SegArgs, ref, target)
		return se.Proc.CPU.Call(target.Seg, target.Entry, args)
	}
	return se.Proc.CPU.CallSym(core.SegArgs, ref, args)
}

// Checkpoint drains the system to a virtual-cycle barrier and writes a
// durable checkpoint through the kernel's backing store: the front-end (if
// serving) is flushed so no accepted connection has work in flight, then
// the kernel flushes every materialized page and commits the manifest.
// Meaningful only when the system was booted over a durable backing store
// (mem.Config.Backing); over the default volatile store the checkpoint is
// written but dies with the process.
func (s *System) Checkpoint(meta map[string]string) (*core.CheckpointReport, error) {
	if s.frontend != nil {
		s.frontend.Flush()
	}
	return s.Kernel.Checkpoint(meta)
}

// Adopt wraps an already-built kernel — typically one that came back from
// core.Restore — in a System, attaching the stage-appropriate login
// machinery. The answering service's user registry is not part of a
// checkpoint: re-register users with AddUser before logging in.
func Adopt(k *core.Kernel) (*System, error) {
	s := &System{Kernel: k}
	if k.Services().Stage >= core.S4LoginDemoted {
		var err error
		s.answering, err = userspace.NewAnsweringSubsystem(k)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}
