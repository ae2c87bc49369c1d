package userspace

import (
	"fmt"

	"repro/internal/acl"
	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mls"
)

// AnsweringSubsystem is the demoted answering service (stage S4 and later):
// the authentication machinery runs as an unprivileged protected subsystem
// in ring 2, entered through the same mechanism as any protected
// subsystem. The only privilege left in the kernel is the
// phcs_$create_process gate, which ring 2 may call and ring 4 may not.
type AnsweringSubsystem struct {
	k    *core.Kernel
	proc *core.Proc
	svc  *auth.Service
	// created is the id phcs_$create_process returned for the login in
	// progress, 0 until the gate succeeds.
	created uint64
}

// NewAnsweringSubsystem stands up the subsystem. It fails on kernels
// before S4, where login is still privileged kernel code.
func NewAnsweringSubsystem(k *core.Kernel) (*AnsweringSubsystem, error) {
	if svc := k.Services(); svc.Stage < core.S4LoginDemoted {
		return nil, fmt.Errorf("userspace: stage %v still has a privileged answering service", svc.Stage)
	}
	sysPrincipal, err := acl.ParsePrincipal("Initializer.SysDaemon.z")
	if err != nil {
		return nil, err
	}
	proc, err := k.CreateProcess("answering_service", sysPrincipal, mls.NewLabel(mls.TopSecret), machine.SupervisorRing)
	if err != nil {
		return nil, fmt.Errorf("userspace: creating subsystem process: %w", err)
	}
	a := &AnsweringSubsystem{k: k, proc: proc}
	a.svc = auth.NewService(k.Services().Users, a.createProcess)
	return a, nil
}

// createProcess is the subsystem's only privileged act: the create-process
// gate, called from ring 2 through the machine's checks.
func (a *AnsweringSubsystem) createProcess(s auth.Session) error {
	pOff, pLen, err := a.proc.GateString(s.Principal.Person)
	if err != nil {
		return err
	}
	jOff, jLen, err := a.proc.GateString(s.Principal.Project)
	if err != nil {
		return err
	}
	out, err := a.proc.CallGate("phcs_$create_process", pOff, pLen, jOff, jLen, uint64(s.Label.Level))
	if err != nil {
		return err
	}
	a.created = out[0]
	return nil
}

// Login authenticates and creates the user's process, returning it.
func (a *AnsweringSubsystem) Login(person, project, password string, level mls.Level) (*core.Proc, error) {
	a.created = 0
	sess, err := a.svc.Login(person, project, password, mls.NewLabel(level))
	if err != nil {
		return nil, err
	}
	p, ok := a.k.Process(a.created)
	if !ok {
		return nil, fmt.Errorf("userspace: login did not create a process")
	}
	if p.Principal != sess.Principal {
		return nil, fmt.Errorf("userspace: created process has principal %v, want %v", p.Principal, sess.Principal)
	}
	return p, nil
}

// SubsystemProcess exposes the ring-2 process, so experiments can verify
// its ring and show that a ring-4 process cannot call the gate it uses.
func (a *AnsweringSubsystem) SubsystemProcess() *core.Proc { return a.proc }
