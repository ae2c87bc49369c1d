// Package audit implements the paper's review activity as an executable
// penetration suite: a catalog of attack classes (after Linde's penetration
// survey, which the paper cites) that are run against a configured kernel,
// with each outcome classified.
//
// The classifications matter more than pass/fail:
//
//   - Blocked: the protection mechanism stopped the attack outright.
//   - Contained: the attack made something fail, but only inside the
//     attacker's own computation (the post-removal linker failures).
//   - SupervisorCompromise: privileged code malfunctioned — the event the
//     kernel-reduction programme exists to eliminate.
//   - AuthorizedLeak: the attack needed no flaw at all (the borrowed
//     trojan horse running with the borrower's full authority); the paper
//     is explicit that only user certification or protected subsystems
//     help here.
package audit

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
	"repro/internal/trace"
)

// Outcome classifies what happened when an attack ran.
type Outcome int

// Outcomes.
const (
	Blocked Outcome = iota
	Contained
	SupervisorCompromise
	AuthorizedLeak
)

func (o Outcome) String() string {
	switch o {
	case Blocked:
		return "blocked"
	case Contained:
		return "contained (attacker-only damage)"
	case SupervisorCompromise:
		return "SUPERVISOR COMPROMISE"
	case AuthorizedLeak:
		return "authorized leak (no flaw exploited)"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Result is one attack's outcome.
type Result struct {
	Attack  string
	Outcome Outcome
	Detail  string
}

// Suite runs the attack catalog against one kernel.
type Suite struct {
	k *core.Kernel

	attacker *core.Proc
	victim   *core.Proc
}

var (
	attackerID = acl.Principal{Person: "Mallory", Project: "SDC", Tag: "a"}
	victimID   = acl.Principal{Person: "Victor", Project: "CSR", Tag: "a"}
	unc        = mls.NewLabel(mls.Unclassified)
)

// NewSuite prepares attacker and victim processes on k.
func NewSuite(k *core.Kernel) (*Suite, error) {
	s := &Suite{k: k}
	var err error
	s.attacker, err = k.CreateProcess("mallory", attackerID, unc, machine.UserRing)
	if err != nil {
		return nil, err
	}
	s.victim, err = k.CreateProcess("victor", victimID, unc, machine.UserRing)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Run executes the whole catalog and returns the results.
func (s *Suite) Run() []Result {
	return []Result{
		s.gateArgumentAbuse(),
		s.malformedLinkerInput(),
		s.directRingViolation(),
		s.nonGateEntryProbe(),
		s.privilegedGateProbe(),
		s.aclBypassProbe(),
		s.mlsReadUpProbe(),
		s.eventChannelAbuse(),
		s.descriptorForgery(),
		s.trojanHorseFullAuthority(),
		s.trojanHorseConfined(),
	}
}

// gateArgumentAbuse throws malformed argument lists at every user gate.
// Any panic or supervisor malfunction is a compromise; clean rejections are
// blocked.
func (s *Suite) gateArgumentAbuse() (res Result) {
	res = Result{Attack: "gate-argument-abuse"}
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = SupervisorCompromise
			res.Detail = fmt.Sprintf("kernel panicked: %v", r)
		}
	}()
	crashesBefore := s.k.SystemCrashes
	tried, rejected, malfunctions := 0, 0, 0
	for _, name := range s.k.Services().UserGates.Names() {
		for _, args := range [][]uint64{
			nil,
			{0xffffffffffffffff},
			{0, 0xffffffffffffffff},
			{1 << 60, 1 << 60, 1 << 60, 1 << 60, 1 << 60, 1 << 60, 1 << 60},
		} {
			tried++
			// Errors are expected; what must not happen is a crash. The
			// gate spine's taxonomy classifies every failure: a bad-args
			// rejection is the validator doing its job, a
			// kernel-malfunction is the event this audit exists to catch.
			_, err := s.attacker.CallGate(name, args...)
			switch gate.Classify(err) {
			case trace.ClassBadArgs:
				rejected++
			case trace.ClassMalfunction:
				malfunctions++
			}
		}
	}
	// A kernelMalfunction both bumps SystemCrashes and classifies as
	// ClassMalfunction, so the two signals overlap: report whichever
	// counted more.
	count := malfunctions
	if d := int(s.k.SystemCrashes - crashesBefore); d > count {
		count = d
	}
	if count > 0 {
		res.Outcome = SupervisorCompromise
		res.Detail = fmt.Sprintf("%d supervisor malfunctions from argument abuse", count)
		return res
	}
	res.Outcome = Blocked
	res.Detail = fmt.Sprintf("%d malformed calls across %d gates all rejected cleanly (%d by the argument validator)",
		tried, len(s.k.Services().UserGates.Names()), rejected)
	return res
}

// malformedLinkerInput is the paper's star exhibit: a maliciously
// malstructured object segment fed to the linker. At S0 the parse happens
// in ring 0 (supervisor malfunction); from S1 on it happens in the
// attacker's own ring (contained).
func (s *Suite) malformedLinkerInput() Result {
	res := Result{Attack: "malformed-linker-input"}
	h := s.k.Services().Hierarchy
	lib, err := h.Create(attackerID, unc, fs.RootUID, "mallory_lib", fs.CreateOptions{Kind: fs.KindDirectory, Label: unc})
	if err != nil {
		res.Outcome = Blocked
		res.Detail = "could not even stage the attack: " + err.Error()
		return res
	}
	evil := &machine.Procedure{Name: "evil", Entries: []machine.EntryFunc{
		func(_ *machine.ExecContext, a []uint64) ([]uint64, error) { return a, nil },
	}}
	uid, err := s.k.InstallProgram(attackerID, unc, lib, "evil", evil,
		[]linker.Symbol{{Name: "main", Entry: 0}}, fs.CreateOptions{Label: unc})
	if err != nil {
		res.Outcome = Blocked
		res.Detail = err.Error()
		return res
	}
	// Mallory malstructures her own object segment — a declared symbol
	// count of 2^40 with no records behind it.
	if err := s.k.SmashSegmentWords(uid, []uint64{linker.SymtabMagic, 1 << 40}); err != nil {
		res.Outcome = Blocked
		res.Detail = err.Error()
		return res
	}

	crashesBefore := s.k.SystemCrashes
	if s.k.Services().Stage < core.S1LinkerRemoved {
		// The kernel linker parses it via the gate.
		lOff, lLen, _ := s.attacker.GateString(">mallory_lib")
		if _, err := s.attacker.CallGate("hcs_$add_search_rule", lOff, lLen); err != nil {
			res.Outcome = Blocked
			res.Detail = err.Error()
			return res
		}
		sOff, sLen, _ := s.attacker.GateString("evil")
		eOff, eLen, _ := s.attacker.GateString("main")
		_, err = s.attacker.CallGate("hcs_$link_snap", sOff, sLen, eOff, eLen)
	} else {
		// The user-ring linker parses it.
		ul := linker.New(&uidEnv{p: s.attacker, uid: uid, stage: s.k.Services().Stage}, machine.UserRing)
		s.attacker.CPU.Linker = ul
		_, err = s.attacker.CPU.CallSym(core.SegArgs, machine.LinkRef{SegName: "evil", EntryName: "main"}, nil)
		s.attacker.CPU.Linker = nil
	}
	switch {
	// Two independent witnesses of a ring-0 malfunction: the kernel's
	// crash counter, and the gate spine classifying the returned error as
	// kernel-malfunction (string matching no longer required).
	case s.k.SystemCrashes > crashesBefore || gate.Classify(err) == trace.ClassMalfunction:
		res.Outcome = SupervisorCompromise
		res.Detail = "privileged linker malfunctioned on malstructured input"
	case err != nil:
		res.Outcome = Contained
		res.Detail = "linker failed in the attacker's own ring: " + err.Error()
	default:
		res.Outcome = Contained
		res.Detail = "parser tolerated the input without privilege"
	}
	return res
}

// uidEnv is a one-segment linker environment for the attack.
type uidEnv struct {
	p     *core.Proc
	uid   uint64
	stage core.Stage
}

func (u *uidEnv) LookupSegment(string) (uint64, error) { return u.uid, nil }
func (u *uidEnv) Initiate(uid uint64) (machine.SegNo, error) {
	if u.stage < core.S2RefNamesRemoved {
		// S1: the path-keyed kernel interface initiates.
		pOff, pLen, err := u.p.GateString(">mallory_lib>evil")
		if err != nil {
			return 0, err
		}
		out, err := u.p.CallGate("hcs_$initiate", pOff, pLen, 0, 0)
		if err != nil {
			return 0, err
		}
		return machine.SegNo(out[0]), nil
	}
	out, err := u.p.CallGate("hcs_$initiate_uid", uid)
	if err != nil {
		return 0, err
	}
	return machine.SegNo(out[0]), nil
}

// directRingViolation tries to read and write the kernel's gate segment
// data directly.
func (s *Suite) directRingViolation() Result {
	res := Result{Attack: "direct-ring-violation"}
	_, rerr := s.attacker.CPU.Load(core.SegHCS, 0)
	werr := s.attacker.CPU.Store(core.SegHCS, 0, 0xdead)
	if rerr == nil || werr == nil {
		res.Outcome = SupervisorCompromise
		res.Detail = "attacker touched the gate segment"
		return res
	}
	res.Outcome = Blocked
	res.Detail = fmt.Sprintf("read: %v; write: %v", rerr, werr)
	return res
}

// nonGateEntryProbe calls the gate segment at entry numbers beyond the
// declared gates.
func (s *Suite) nonGateEntryProbe() Result {
	res := Result{Attack: "non-gate-entry-probe"}
	n := s.k.Services().UserGates.Count()
	for probe := n; probe < n+8; probe++ {
		if _, err := s.attacker.CPU.Call(core.SegHCS, probe, nil); !machine.IsFaultClass(err, machine.FaultGate) {
			res.Outcome = SupervisorCompromise
			res.Detail = fmt.Sprintf("entry %d reachable: %v", probe, err)
			return res
		}
	}
	res.Outcome = Blocked
	res.Detail = "all out-of-range entries faulted"
	return res
}

// privilegedGateProbe calls every phcs_ gate from the user ring.
func (s *Suite) privilegedGateProbe() Result {
	res := Result{Attack: "privileged-gate-probe"}
	for _, name := range s.k.Services().PrivGates.Names() {
		if _, err := s.attacker.CallGate(name, 0, 0); !machine.IsFaultClass(err, machine.FaultRing) {
			res.Outcome = SupervisorCompromise
			res.Detail = fmt.Sprintf("%s reachable from user ring: %v", name, err)
			return res
		}
	}
	res.Outcome = Blocked
	res.Detail = fmt.Sprintf("%d privileged gates all refused ring-4 callers", s.k.Services().PrivGates.Count())
	return res
}

// aclBypassProbe tries to initiate the victim's private segment.
func (s *Suite) aclBypassProbe() Result {
	res := Result{Attack: "acl-bypass-probe"}
	uid, err := s.k.Services().Hierarchy.Create(victimID, unc, fs.RootUID, "victor_private", fs.CreateOptions{
		Kind: fs.KindSegment, Label: unc, Length: 8,
	})
	if err != nil {
		res.Outcome = Blocked
		res.Detail = err.Error()
		return res
	}
	err = s.tryInitiate(s.attacker, ">victor_private", uid)
	if err == nil {
		res.Outcome = SupervisorCompromise
		res.Detail = "attacker initiated the victim's private segment"
		return res
	}
	res.Outcome = Blocked
	res.Detail = err.Error()
	return res
}

// tryInitiate initiates a segment by path (stage-appropriately).
func (s *Suite) tryInitiate(p *core.Proc, path string, uid uint64) error {
	if s.k.Services().Stage < core.S2RefNamesRemoved {
		pOff, pLen, err := p.GateString(path)
		if err != nil {
			return err
		}
		_, err = p.CallGate("hcs_$initiate", pOff, pLen, 0, 0)
		return err
	}
	_, err := p.CallGate("hcs_$initiate_uid", uid)
	return err
}

// mlsReadUpProbe tries to read a secret segment from an unclassified
// process that holds discretionary access.
func (s *Suite) mlsReadUpProbe() Result {
	res := Result{Attack: "mls-read-up-probe"}
	uid, err := s.k.Services().Hierarchy.Create(attackerID, unc, fs.RootUID, "upgraded", fs.CreateOptions{
		Kind: fs.KindSegment, Label: mls.NewLabel(mls.Secret), Length: 8,
		ACL: acl.New(acl.Entry{
			Who:  acl.Pattern{Person: acl.Wildcard, Project: acl.Wildcard, Tag: acl.Wildcard},
			Mode: acl.ModeRead | acl.ModeWrite,
		}),
	})
	if err != nil {
		res.Outcome = Blocked
		res.Detail = err.Error()
		return res
	}
	// Initiation succeeds (write-up is legal) but the SDW must not carry
	// read access.
	if err := s.tryInitiate(s.attacker, ">upgraded", uid); err != nil {
		res.Outcome = Blocked
		res.Detail = err.Error()
		return res
	}
	seg, ok := s.attacker.KST.SegNoForUID(uid)
	if !ok {
		res.Outcome = Blocked
		res.Detail = "segment not initiated"
		return res
	}
	if _, err := s.attacker.CPU.Load(seg, 0); err == nil {
		res.Outcome = SupervisorCompromise
		res.Detail = "unclassified process read a secret segment"
		return res
	}
	res.Outcome = Blocked
	res.Detail = "read up denied by the SDW the kernel built"
	return res
}

// eventChannelAbuse signals a channel whose governing segment the attacker
// cannot write.
func (s *Suite) eventChannelAbuse() Result {
	res := Result{Attack: "event-channel-abuse"}
	h := s.k.Services().Hierarchy
	uid, err := h.Create(victimID, unc, fs.RootUID, "victor_mailbox", fs.CreateOptions{
		Kind: fs.KindSegment, Label: unc, Length: 8,
	})
	if err != nil {
		res.Outcome = Blocked
		res.Detail = err.Error()
		return res
	}
	if err := s.tryInitiate(s.victim, ">victor_mailbox", uid); err != nil {
		res.Outcome = Blocked
		res.Detail = "victim setup failed: " + err.Error()
		return res
	}
	seg, _ := s.victim.KST.SegNoForUID(uid)
	out, err := s.victim.CallGate("hcs_$create_ev_chn", uint64(seg))
	if err != nil {
		res.Outcome = Blocked
		res.Detail = "victim setup failed: " + err.Error()
		return res
	}
	if _, err := s.attacker.CallGate("hcs_$wakeup", out[0], 0xbad); err == nil {
		res.Outcome = SupervisorCompromise
		res.Detail = "attacker signalled a channel without write access"
		return res
	}
	res.Outcome = Blocked
	res.Detail = "signal denied by the memory-protection check"
	return res
}

// descriptorForgery attempts to execute a data segment and to use an
// out-of-range segment number.
func (s *Suite) descriptorForgery() Result {
	res := Result{Attack: "descriptor-forgery"}
	if _, err := s.attacker.CPU.Call(core.SegArgs, 0, nil); !machine.IsFaultClass(err, machine.FaultAccess) {
		res.Outcome = SupervisorCompromise
		res.Detail = fmt.Sprintf("executed a data segment: %v", err)
		return res
	}
	if _, err := s.attacker.CPU.Load(machine.SegNo(9999), 0); !machine.IsFaultClass(err, machine.FaultSegment) {
		res.Outcome = SupervisorCompromise
		res.Detail = fmt.Sprintf("dangling descriptor: %v", err)
		return res
	}
	res.Outcome = Blocked
	res.Detail = "forged references all faulted"
	return res
}

// trojanHorseFullAuthority: the victim borrows and runs the attacker's
// program with the victim's full authority. The paper is explicit that the
// kernel cannot stop this; the result is an authorized leak.
func (s *Suite) trojanHorseFullAuthority() Result {
	res := Result{Attack: "trojan-horse-full-authority"}
	leak, err := s.stageTrojan(machine.UserRing)
	if err != nil {
		res.Outcome = Blocked
		res.Detail = "staging failed: " + err.Error()
		return res
	}
	if leak {
		res.Outcome = AuthorizedLeak
		res.Detail = "borrowed code exfiltrated the victim's data using the victim's own authority"
	} else {
		res.Outcome = Blocked
		res.Detail = "trojan unexpectedly failed"
	}
	return res
}

// trojanHorseConfined: the same borrowed program run inside a protected
// subsystem boundary — an outer ring where the victim's private segments
// are not accessible.
func (s *Suite) trojanHorseConfined() Result {
	res := Result{Attack: "trojan-horse-confined"}
	leak, err := s.stageTrojan(machine.Ring(5))
	if err == nil && leak {
		res.Outcome = SupervisorCompromise
		res.Detail = "ring confinement failed to stop the trojan"
		return res
	}
	res.Outcome = Blocked
	if err != nil {
		res.Detail = "ring brackets stopped the read: " + err.Error()
	} else {
		res.Detail = "trojan ran but obtained nothing"
	}
	return res
}

// stageTrojan builds the victim's private segment (readable in rings
// <= 4 only) and runs borrowed attacker code in execRing that tries to
// read it. It reports whether the secret leaked.
func (s *Suite) stageTrojan(execRing machine.Ring) (bool, error) {
	h := s.k.Services().Hierarchy
	name := fmt.Sprintf("victor_notes_r%d", int(execRing))
	uid, err := h.Create(victimID, unc, fs.RootUID, name, fs.CreateOptions{
		Kind: fs.KindSegment, Label: unc, Length: 8,
		Brackets: machine.Brackets{R1: machine.UserRing, R2: machine.UserRing, R3: machine.UserRing},
	})
	if err != nil {
		return false, err
	}
	if err := s.tryInitiate(s.victim, ">"+name, uid); err != nil {
		return false, err
	}
	seg, _ := s.victim.KST.SegNoForUID(uid)
	if err := s.victim.CPU.Store(seg, 0, 0x5ec3e7); err != nil {
		return false, err
	}

	// The borrowed program: written by the attacker, executed by the
	// victim. It reads the victim's segment and reports the value out.
	var leaked uint64
	trojan := &machine.Procedure{Name: "useful_utility", Entries: []machine.EntryFunc{
		func(ctx *machine.ExecContext, _ []uint64) ([]uint64, error) {
			v, err := ctx.Load(seg, 0)
			if err != nil {
				return nil, err
			}
			leaked = v // models writing to an attacker-readable place
			return []uint64{v}, nil
		},
	}}
	// Install the trojan into the victim's descriptor segment at the
	// execution ring under test.
	tseg := s.victim.DS.FirstFree(core.FirstUserSegNo)
	if err := s.victim.DS.Set(tseg, machine.SDW{
		Proc:     trojan,
		Mode:     machine.ModeExecute,
		Brackets: machine.UserBrackets(execRing),
	}); err != nil {
		return false, err
	}
	if _, err := s.victim.CPU.Call(tseg, 0, nil); err != nil {
		return false, err
	}
	return leaked == 0x5ec3e7, nil
}

// Summary tallies results by outcome.
func Summary(results []Result) map[Outcome]int {
	m := make(map[Outcome]int)
	for _, r := range results {
		m[r.Outcome]++
	}
	return m
}

// Format renders results as a table.
func Format(results []Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%-32s %-36s %s\n", r.Attack, r.Outcome, r.Detail)
	}
	return b.String()
}
