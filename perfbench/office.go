package main

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/netattach"
	"repro/internal/workload"
	"repro/multics"
)

var officeWorkload = &spec{
	name: "office",
	why: "2-kernel fleet, 64 persona sessions (editor 4: compiler 1: daemon 1: tenants 2), re-login per script, " +
		"migrate every 8th burst: netattach, fleet, login, sched, gates; no paging",
	ops:     24000,
	prepare: prepareOffice,
}

const (
	officeKernels  = 2
	officeSessions = 64
	// officeMigrateEvery: a session migrates to the other kernel after
	// every this many of its bursts.
	officeMigrateEvery = 8
)

// officeScenario is the persona mix of one script generation.
func officeScenario(seed int64) *workload.Scenario {
	return workload.NewScenario("office", seed).
		Mix(workload.InteractiveEditor(), 4).
		Mix(workload.BatchCompiler(), 1).
		Mix(workload.Daemon(), 1).
		Mix(workload.TenantPair(), 2).
		Sessions(officeSessions).
		ClosedLoop()
}

// officeSend is one request of the schedule.
type officeSend struct {
	slot int
	op   netattach.Op
	arg  uint64
}

// officeAction is what a slot does after its round's replies are read.
type officeAction struct {
	slot     int
	reattach bool // close and attach again; otherwise migrate
}

type officeRound struct {
	sends []officeSend
	after []officeAction
}

type officeSlot struct {
	person, project, password string
	level                     multics.Level
}

// officeInputs is the whole office schedule, computed from the seed
// before any system exists: every burst, migration and re-login.
type officeInputs struct {
	accounts []workload.Account
	slots    []officeSlot
	// warm is played and its sessions logged out during set-up; rounds is
	// the timed phase, on fresh sessions.
	warm, rounds []officeRound
}

// prepareOffice lays out the timed schedule and, from a separate seed
// stream, a shorter warm-up schedule over the same accounts.
func prepareOffice(seed int64, ops int) (inputs, error) {
	in := &officeInputs{}
	var err error
	if in.slots, in.accounts, in.warm, err = officeSchedule(hash64(uint64(seed), 0x3a1), ops/8); err != nil {
		return nil, err
	}
	slots, _, rounds, err := officeSchedule(hash64(uint64(seed), 0x0ff1ce), ops)
	if err != nil {
		return nil, err
	}
	for i := range slots {
		if slots[i] != in.slots[i] {
			return nil, fmt.Errorf("slot %d has different accounts in warm-up and timed schedules", i)
		}
	}
	in.rounds = rounds
	return in, nil
}

// officeSchedule compiles successive script generations of the persona
// mix and lays them out round by round. A slot whose script ends logs in
// again with its next generation's script (same persona and account,
// new requests); every officeMigrateEvery-th burst of a slot moves it to
// the other kernel. Rounds are added until ops requests are scheduled.
func officeSchedule(stream uint64, ops int) ([]officeSlot, []workload.Account, []officeRound, error) {
	var plans []*workload.Plan
	plan := func(g int) (*workload.Plan, error) {
		for len(plans) <= g {
			p, err := officeScenario(int64(hash64(stream, uint64(len(plans))) >> 1)).Plan()
			if err != nil {
				return nil, err
			}
			plans = append(plans, p)
		}
		return plans[g], nil
	}
	p0, err := plan(0)
	if err != nil {
		return nil, nil, nil, err
	}
	var slots []officeSlot
	for _, s := range p0.Scripts {
		slots = append(slots, officeSlot{s.Person, s.Project, s.Password, s.Level})
	}
	var rounds []officeRound
	type slotState struct{ gen, start, burst, lifetime int }
	st := make([]slotState, len(slots))
	total := 0
	for r := 0; total < ops; r++ {
		var round officeRound
		for i := range st {
			s := &st[i]
			p, err := plan(s.gen)
			if err != nil {
				return nil, nil, nil, err
			}
			ws := p.Windows[i]
			if s.start+ws[s.burst].Round != r {
				continue
			}
			if sc := p.Scripts[i]; sc.Person != slots[i].person || sc.Level != slots[i].level {
				return nil, nil, nil, fmt.Errorf("slot %d changed account across generations", i)
			}
			w := ws[s.burst]
			for _, step := range p.Scripts[i].Steps[w.Lo:w.Hi] {
				round.sends = append(round.sends, officeSend{slot: i, op: step.Op, arg: step.Arg})
			}
			s.burst++
			s.lifetime++
			switch {
			case s.burst == len(ws):
				round.after = append(round.after, officeAction{slot: i, reattach: true})
				s.gen, s.start, s.burst = s.gen+1, r+1, 0
			case s.lifetime%officeMigrateEvery == 0:
				round.after = append(round.after, officeAction{slot: i})
			}
		}
		total += len(round.sends)
		rounds = append(rounds, round)
	}
	return slots, p0.Accounts, rounds, nil
}

// officeSys is one booted fleet with its attached sessions.
type officeSys struct {
	in       *officeInputs
	tr       *tracer
	f        *fleet.Fleet
	sessions []*fleet.Session
	// sums is the oracle's running OpSum total per slot; it survives a
	// migration and restarts at a re-login.
	sums []uint64
	// want holds the replies each slot awaits this round, in order.
	want [][]uint64
}

func (in *officeInputs) boot(tr *tracer) (system, error) {
	f, err := fleet.New(fleet.Config{Kernels: officeKernels, MaxConns: 2 * officeSessions})
	if err != nil {
		return nil, err
	}
	s := &officeSys{in: in, tr: tr, f: f,
		sums: make([]uint64, len(in.slots)), want: make([][]uint64, len(in.slots))}
	for _, a := range in.accounts {
		if err := f.AddUser(a.Person, a.Project, a.Password, a.Clearance); err != nil {
			s.close()
			return nil, err
		}
	}
	// Warm-up: play the warm schedule, checked like the timed one, then
	// log every session out, so logins, routes, gates and each kernel's
	// caches are exercised before the timed phase starts on fresh
	// sessions.
	warm := &outcome{}
	err = s.attachAll()
	if err == nil {
		err = s.play(warm, in.warm)
	}
	if err == nil {
		err = s.closeAll()
	}
	if err == nil {
		err = s.attachAll()
	}
	if err == nil && warm.failed > 0 {
		err = fmt.Errorf("warm-up: %s", warm.firstErrs[0])
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// attachAll logs every slot in with a fresh session.
func (s *officeSys) attachAll() error {
	s.sessions = s.sessions[:0]
	for i := range s.in.slots {
		sess, err := s.attach(i)
		if err != nil {
			return fmt.Errorf("slot %d: attach: %w", i, err)
		}
		s.sessions = append(s.sessions, sess)
		s.sums[i] = 0
	}
	return nil
}

// closeAll logs every slot's session out.
func (s *officeSys) closeAll() error {
	for i, sess := range s.sessions {
		if err := sess.Close(); err != nil {
			return fmt.Errorf("slot %d: close: %w", i, err)
		}
	}
	return nil
}

func (s *officeSys) clock(m int) *machine.Clock {
	return s.f.Member(m).Sys.Kernel.Services().Clock
}

func (s *officeSys) attach(i int) (*fleet.Session, error) {
	sl := s.in.slots[i]
	home := s.f.Route(sl.person, sl.project)
	sp := s.tr.begin(s.clock(home))
	sess, err := s.f.Attach(sl.person, sl.project, sl.password, sl.level)
	s.tr.end(kAttach, s.clock(home), sp)
	return sess, err
}

func (s *officeSys) flush() {
	for m := 0; m < officeKernels; m++ {
		clk := s.clock(m)
		sp := s.tr.begin(clk)
		s.f.Member(m).FE.Flush()
		s.tr.end(kFlush, clk, sp)
	}
}

// collect reads every slot's replies and checks them against the oracle.
// roundVC, when set, is each member's clock advance across the round;
// every request answered counts that as its virtual latency.
func (s *officeSys) collect(o *outcome, sentTo []int, roundVC []int64) {
	for i, want := range s.want {
		if len(want) == 0 {
			continue
		}
		conn := s.sessions[i].Conn()
		clk := s.clock(s.sessions[i].Home())
		got := 0
		for {
			sp := s.tr.begin(clk)
			v, ok, err := conn.TryRecv()
			s.tr.end(kRecv, clk, sp)
			if err != nil {
				o.fail("slot %d: recv: %v", i, err)
				break
			}
			if !ok {
				break
			}
			if got >= len(want) {
				o.fail("slot %d: unexpected reply %d", i, v)
				continue
			}
			if v != want[got] {
				o.fail("slot %d: reply %d is %d, want %d", i, got, v, want[got])
			}
			o.digest.fold(uint64(i), v)
			got++
		}
		for ; got < len(want); got++ {
			o.fail("slot %d: reply %d missing (want %d)", i, got, want[got])
		}
		if roundVC != nil {
			for range want {
				o.vc = append(o.vc, roundVC[sentTo[i]])
			}
		}
		s.want[i] = want[:0]
	}
}

// expect is the oracle: the reply a request must produce.
func (s *officeSys) expect(slot int, op netattach.Op, arg uint64) uint64 {
	switch op {
	case netattach.OpSum:
		s.sums[slot] += arg
		return s.sums[slot]
	case netattach.OpLevel:
		return uint64(s.in.slots[slot].level)
	default: // echo and spin reply with the payload
		return arg & netattach.PayloadMask
	}
}

func (s *officeSys) run(o *outcome) error { return s.play(o, s.in.rounds) }

// play runs rounds: each sends every due request, flushes both members,
// reads and checks the replies, then migrates or re-logs slots.
func (s *officeSys) play(o *outcome, rounds []officeRound) error {
	start := make([]int64, officeKernels)
	roundVC := make([]int64, officeKernels)
	sentTo := make([]int, len(s.sessions))
	for _, round := range rounds {
		t0 := time.Now()
		for m := range start {
			start[m] = s.clock(m).Now()
		}
		for _, snd := range round.sends {
			sess := s.sessions[snd.slot]
			clk := s.clock(sess.Home())
			o.attempted++
			sp := s.tr.begin(clk)
			err := sess.Conn().Send(snd.op, snd.arg)
			s.tr.end(kSend, clk, sp)
			if err != nil {
				o.fail("slot %d: send: %v", snd.slot, err)
				continue
			}
			sentTo[snd.slot] = sess.Home()
			s.want[snd.slot] = append(s.want[snd.slot], s.expect(snd.slot, snd.op, snd.arg))
		}
		s.flush()
		for m := range roundVC {
			roundVC[m] = s.clock(m).Now() - start[m]
		}
		s.collect(o, sentTo, roundVC)
		if s.tr != nil {
			d := int64(time.Since(t0))
			for range round.sends {
				o.host = append(o.host, d)
			}
		}
		o.rounds++
		for _, a := range round.after {
			if err := s.act(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// act migrates a slot's session or logs it in again.
func (s *officeSys) act(a officeAction) error {
	sess := s.sessions[a.slot]
	clk := s.clock(sess.Home())
	if !a.reattach {
		sp := s.tr.begin(clk)
		err := sess.Migrate((sess.Home() + 1) % officeKernels)
		s.tr.end(kMigrate, clk, sp)
		if err != nil {
			return fmt.Errorf("slot %d: migrate: %w", a.slot, err)
		}
		return nil
	}
	sp := s.tr.begin(clk)
	err := sess.Close()
	s.tr.end(kClose, clk, sp)
	if err != nil {
		return fmt.Errorf("slot %d: close: %w", a.slot, err)
	}
	next, err := s.attach(a.slot)
	if err != nil {
		return fmt.Errorf("slot %d: re-attach: %w", a.slot, err)
	}
	s.sessions[a.slot] = next
	s.sums[a.slot] = 0
	return nil
}

func (s *officeSys) vclock() int64 {
	var t int64
	for m := 0; m < officeKernels; m++ {
		t += s.clock(m).Now()
	}
	return t
}

func (s *officeSys) counters() map[string]int64 {
	c := sumRegistries(s.f.Metrics())
	for m := 0; m < officeKernels; m++ {
		member := s.f.Member(m)
		for k, v := range kernelCounters(member.Sys.Kernel) {
			c[k] += v
		}
		if p := member.FE.Stats().AttachP99; p > c["net.attach_p99_vc"] {
			c["net.attach_p99_vc"] = p
		}
	}
	return c
}

func (s *officeSys) close() { s.f.Close() }
