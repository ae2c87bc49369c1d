package workload

import (
	"fmt"

	"repro/internal/netattach"
	"repro/multics"
)

// OpMix weights the request kinds a persona draws its work steps from.
// Only reply-pure operations are offered: echo, sum and spin replies are
// functions of the connection's own request sequence, and level replies
// are functions of the session's login level, so any mix keeps the
// transcript digest invariant across kernel counts and migrations.
// (OpClock is deliberately absent — its reply reads the virtual clock,
// which would tie the transcript to which kernel served it, and when.)
type OpMix struct {
	// Echo replays the payload unchanged.
	Echo int
	// Sum adds the payload to the connection's running sum.
	Sum int
	// Spin consumes payload cycles of CPU — the compute in a session.
	Spin int
	// Level reads the session's mandatory level through
	// hcs_$get_authorization — the probe MLS-labeled personas lean on.
	Level int
}

func (m OpMix) total() int { return m.Echo + m.Sum + m.Spin + m.Level }

// Persona describes one behavioral shape inside a scenario: how many
// requests a session of this persona makes, how they are paced, which
// accounts and levels its sessions log in under, and what the work
// steps look like. A Persona is a value — copy it, tweak fields, and
// hand it to Scenario.Mix.
type Persona struct {
	// Name labels the persona in reports, metrics counters
	// (workload.persona.<name>.*) and account names. Must be non-empty
	// and unique within a scenario.
	Name string
	// Steps is the number of requests per session.
	Steps int
	// Burst is how many requests a session fires back-to-back per
	// activation. Keep it under the front-end's high-water mark (64) or
	// sends are throttled away and digests stop comparing across runs.
	Burst int
	// Think is the pacing gap, in engine rounds, a session of this
	// persona waits between bursts under the closed-loop model. The
	// exact gap is jittered per burst from the scenario seed, so two
	// sessions of the same persona do not march in lockstep.
	Think int
	// Users is the number of distinct accounts this persona's sessions
	// share (default: min(sessions, 8)).
	Users int
	// Levels are the login levels its sessions cycle through (default:
	// Secret). Accounts are registered with a clearance dominating every
	// listed level.
	Levels []multics.Level
	// Ops weights the request mix (default: pure echo).
	Ops OpMix
	// SumMax and SpinMax bound the sum and spin payloads (defaults:
	// 1<<20 and 256).
	SumMax, SpinMax uint64

	// legacy routes script generation through the historical
	// seeded stream (see stormScripts), so the Stormer persona
	// reproduces pre-scenario transcripts byte-for-byte.
	legacy bool
}

// InteractiveEditor is a terminal user: short echo-heavy exchanges in
// small bursts with think-time between them.
func InteractiveEditor() Persona {
	return Persona{
		Name: "editor", Steps: 12, Burst: 2, Think: 3, Users: 4,
		Ops: OpMix{Echo: 6, Sum: 2, Level: 1},
	}
}

// BatchCompiler is a batch job: the whole compilation arrives as one
// burst of compute- and segment-heavy requests, then the job is done.
func BatchCompiler() Persona {
	return Persona{
		Name: "compiler", Steps: 8, Burst: 8, Users: 2,
		Ops: OpMix{Sum: 4, Spin: 3, Echo: 1}, SpinMax: 1 << 10,
	}
}

// Daemon is a long-lived service process: it holds its connection (and
// the segments behind it) across the whole run, trickling one request
// per activation with a short think gap.
func Daemon() Persona {
	return Persona{
		Name: "daemon", Steps: 16, Burst: 1, Think: 1, Users: 1,
		Ops: OpMix{Echo: 1, Sum: 1, Level: 2},
	}
}

// TenantPair is a pair of MLS-labeled tenants: sessions alternate
// between an unclassified and a secret login and probe their mandatory
// level on every other step — the cross-level traffic the reference
// monitor must keep separated.
func TenantPair() Persona {
	return Persona{
		Name: "tenants", Steps: 10, Burst: 2, Think: 1, Users: 2,
		Levels: []multics.Level{multics.Unclassified, multics.Secret},
		Ops:    OpMix{Level: 3, Echo: 2, Sum: 1},
	}
}

// Stormer is the historical login→work→logout storm shape: every
// session fires the same echo/sum/spin script in back-to-back bursts
// with no think-time, generated from the classic seeded stream. users
// zero means the historical default (min(sessions, 8)); burst zero
// means the whole script in one storm.
func Stormer(steps, burst, users int) Persona {
	return Persona{
		Name: "stormer", Steps: steps, Burst: burst, Users: users,
		legacy: true,
	}
}

func (p *Persona) setDefaults(sessions int) error {
	if p.Name == "" {
		return fmt.Errorf("workload: persona with empty name")
	}
	if p.Steps == 0 {
		p.Steps = 8
	}
	if p.Burst == 0 {
		p.Burst = p.Steps
	}
	if p.Users == 0 {
		p.Users = sessions
		if p.Users > 8 {
			p.Users = 8
		}
	}
	if len(p.Levels) == 0 {
		p.Levels = []multics.Level{multics.Secret}
	}
	if p.Ops.total() == 0 {
		p.Ops = OpMix{Echo: 1}
	}
	if p.SumMax == 0 {
		p.SumMax = 1 << 20
	}
	if p.SpinMax == 0 {
		p.SpinMax = 256
	}
	if p.Steps < 1 || p.Burst < 1 || p.Users < 1 || p.Think < 0 {
		return fmt.Errorf("workload: persona %q: invalid shape steps=%d burst=%d users=%d think=%d",
			p.Name, p.Steps, p.Burst, p.Users, p.Think)
	}
	if p.Ops.Echo < 0 || p.Ops.Sum < 0 || p.Ops.Spin < 0 || p.Ops.Level < 0 {
		return fmt.Errorf("workload: persona %q: negative op weight %+v", p.Name, p.Ops)
	}
	return nil
}

// clearance is the level accounts of this persona are registered at: it
// must dominate every level its sessions log in under.
func (p *Persona) clearance() multics.Level {
	max := p.Levels[0]
	for _, l := range p.Levels[1:] {
		if l > max {
			max = l
		}
	}
	return max
}

// splitmix64 is the pure seeded hash every persona decision derives
// from: no stateful generator, no shared stream, so any step of any session can
// be computed independently of every other — the property that keeps
// schedules and scripts identical at any kernel count.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashChain folds the parts through splitmix64.
func hashChain(parts ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return h
}

// hashName folds a string into the chain domain.
func hashName(s string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// step computes work step j of this persona's local session s, purely
// from the scenario seed.
func (p *Persona) step(seed int64, s, j int) Step {
	pid := hashName(p.Name)
	pick := hashChain(uint64(seed), pid, uint64(s), uint64(j), 1)
	arg := hashChain(uint64(seed), pid, uint64(s), uint64(j), 2)
	r := int(pick % uint64(p.Ops.total()))
	switch {
	case r < p.Ops.Echo:
		return Step{netattach.OpEcho, arg & netattach.PayloadMask}
	case r < p.Ops.Echo+p.Ops.Sum:
		return Step{netattach.OpSum, arg % p.SumMax}
	case r < p.Ops.Echo+p.Ops.Sum+p.Ops.Spin:
		return Step{netattach.OpSpin, arg % p.SpinMax}
	default:
		return Step{netattach.OpLevel, 0}
	}
}

// thinkGap is the jittered closed-loop pause after burst b of local
// session s: at least one round, plus up to Think extra.
func (p *Persona) thinkGap(seed int64, s, b int) int {
	if p.Think <= 0 {
		return 1
	}
	j := hashChain(uint64(seed), hashName(p.Name), uint64(s), uint64(b), 3)
	return 1 + int(j%uint64(p.Think+1))
}
