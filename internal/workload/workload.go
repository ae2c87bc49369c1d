// Package workload replays scripted login→work→logout traffic against a
// booted system's network attachment front-end. A Scenario composes
// weighted Persona mixes (interactive editors, batch compilers,
// long-lived daemons, MLS-labeled tenant pairs — or the classic storm
// shape) under an open- or closed-loop arrival model; every script,
// schedule and account is a pure function of the scenario seed, the
// engine drives the sessions from one goroutine in a fixed round
// schedule over virtual time, and the transcript of every reply is
// folded into a digest — so the same seed always produces the same
// digest and the same virtual time, and the same digest no matter how
// many kernels serve it. The report carries throughput, per-persona
// outcome and attach-latency breakdowns, peak buffer occupancy, and
// exact drop counts, which is what lets cmd/loadgen show the legacy
// circular buffers losing traffic under storm while the consolidated S5
// path loses none.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/netattach"
	"repro/internal/trace"
	"repro/multics"
)

// Step is one scripted request inside a session.
type Step struct {
	Op  netattach.Op
	Arg uint64
}

// Script is one scripted session: who logs in, and the work they do
// before logging out.
type Script struct {
	Person, Project, Password string
	Level                     multics.Level
	Steps                     []Step
}

// PersonaReport is one persona's slice of a run.
type PersonaReport struct {
	Name     string `json:"name"`
	Sessions int    `json:"sessions"`

	Sent      int64 `json:"sent"`
	Received  int64 `json:"received"`
	Throttled int64 `json:"throttled"`
	// Failed counts this persona's sessions that died (only under a
	// fault plan).
	Failed int64 `json:"failed"`

	// AttachP50/AttachP99 are attach-latency percentiles over this
	// persona's sessions, in virtual cycles. Attaches happen under the
	// single-threaded login flush, so these are deterministic.
	AttachP50 int64 `json:"attach_p50"`
	AttachP99 int64 `json:"attach_p99"`

	// Digest folds this persona's per-session transcript digests in
	// session order.
	Digest string `json:"digest"`
}

// Report is the outcome of one traffic run.
type Report struct {
	// Scenario names the scenario that ran.
	Scenario string `json:"scenario"`
	Conns    int    `json:"conns"`
	// Steps is the longest per-session script in the scenario.
	Steps int `json:"steps"`

	// Sent counts requests accepted by Send; Throttled counts sends
	// refused at the high-water mark (explicit backpressure).
	Sent      int64 `json:"sent"`
	Throttled int64 `json:"throttled"`
	// Received counts replies read back by the engine.
	Received int64 `json:"received"`

	// Front-end counters at the end of the run (see netattach.Stats).
	Stats netattach.Stats `json:"stats"`

	// Failed counts connections whose sessions errored out despite the
	// recovery paths; zero unless the run injected faults
	// (Scenario.Faults) and a session exhausted its retries.
	Failed int64 `json:"failed"`

	// Cycles is the virtual time the run took.
	Cycles int64 `json:"cycles"`
	// Throughput is requests processed per thousand virtual cycles.
	Throughput float64 `json:"throughput"`

	// Personas breaks the outcome down per persona, sorted by name so
	// the rendering is byte-identical across runs.
	Personas []PersonaReport `json:"personas"`

	// Digest is a sha256 over the full reply transcript and the final
	// counters: the determinism witness.
	Digest string `json:"digest"`
	// SessionDigest folds the per-session reply transcripts in session
	// order using exactly the fleet runner's encoding, so a
	// single-kernel run and a fleet.Run of the same scenario can be
	// compared digest-to-digest across kernel counts and migration
	// cadences.
	SessionDigest string `json:"session_digest"`
	// ScheduleDigest folds the compiled burst schedule (see
	// Plan.ScheduleDigest): the arrival-model determinism witness.
	ScheduleDigest string `json:"schedule_digest"`
	// TraceDigest is a sha256 over the front-end's attachment-lifecycle
	// trace stream (attach → request* → drain → close per connection),
	// in arrival order. One goroutine drives the replay, so two replays
	// of the same scenario produce the same digest.
	TraceDigest string `json:"trace_digest"`
}

// Format renders the report for the terminal.
func (r Report) Format() string {
	s := fmt.Sprintf(
		"scenario %s  conns %d  steps %d  sent %d  received %d  throttled %d  failed %d\n"+
			"delivered %d  processed %d  replies %d  reply-drops %d\n"+
			"input-lost %d  reply-lost %d  peak-in %d  peak-out %d\n"+
			"attach p50 %d cy  p99 %d cy  cycles %d  throughput %.2f req/kcy\n",
		r.Scenario, r.Conns, r.Steps, r.Sent, r.Received, r.Throttled, r.Failed,
		r.Stats.Delivered, r.Stats.Processed, r.Stats.Replies, r.Stats.ReplyDrops,
		r.Stats.InputLost, r.Stats.ReplyLost, r.Stats.PeakInput, r.Stats.PeakOutput,
		r.Stats.AttachP50, r.Stats.AttachP99, r.Cycles, r.Throughput)
	for _, p := range r.Personas {
		s += fmt.Sprintf("persona %-10s sessions %-4d sent %-6d received %-6d throttled %-4d failed %-3d attach p50 %d cy p99 %d cy\n",
			p.Name, p.Sessions, p.Sent, p.Received, p.Throttled, p.Failed, p.AttachP50, p.AttachP99)
	}
	s += fmt.Sprintf("digest %s\nsession-digest %s\nschedule-digest %s\ntrace-digest %s\n",
		r.Digest, r.SessionDigest, r.ScheduleDigest, r.TraceDigest)
	return s
}

// MemConfig returns the memory geometry Boot gives a system serving sc.
// A restore of a checkpoint taken under this geometry must be handed the
// same shape (core.Restore checks the page size; the frame counts govern
// paging behavior, not correctness).
func MemConfig(sc *Scenario) mem.Config {
	frames := 4 * sc.sessions
	if frames < 4096 {
		frames = 4096
	}
	mc := mem.DefaultConfig()
	mc.CoreFrames = frames
	mc.BulkBlocks = frames
	mc.Backing = sc.backing
	return mc
}

// RegisterUsers registers sc's accounts with sys. Boot calls it; a
// system restored from a checkpoint needs it again, because the
// answering service's user registry is deliberately outside the
// checkpoint.
func RegisterUsers(sys *multics.System, sc *Scenario) error {
	plan, err := sc.Plan()
	if err != nil {
		return err
	}
	for _, a := range plan.Accounts {
		if err := sys.AddUser(a.Person, a.Project, a.Password, a.Clearance); err != nil {
			return err
		}
	}
	return nil
}

// Boot builds a system at the given stage with memory scaled for the
// scenario's session count, and registers its accounts.
func Boot(stage multics.Stage, sc *Scenario) (*multics.System, error) {
	if _, err := sc.Plan(); err != nil {
		return nil, err
	}
	mc := MemConfig(sc)
	sys, err := multics.NewWithConfig(core.Config{Stage: stage, Mem: &mc, Faults: sc.faults})
	if err != nil {
		return nil, err
	}
	if err := RegisterUsers(sys, sc); err != nil {
		sys.Shutdown()
		return nil, err
	}
	return sys, nil
}

// frontend returns sys's front-end, serving one if none is up.
func frontend(sys *multics.System, conns int) (*netattach.Frontend, error) {
	if fe := sys.Frontend(); fe != nil {
		return fe, nil
	}
	workers := 4
	if conns >= 64 {
		workers = 8
	}
	return sys.Serve(netattach.Config{Workers: workers, MaxConns: conns})
}

// Run replays the scenario against sys: dial every session, fire the
// compiled burst schedule round by round (Replay), log every session
// out, and report. The reply transcript is hashed per session and the
// per-session digests are folded together in session order.
func Run(sys *multics.System, sc *Scenario) (*Report, error) {
	plan, err := sc.Plan()
	if err != nil {
		return nil, err
	}
	fe, err := frontend(sys, len(plan.Scripts))
	if err != nil {
		return nil, err
	}
	// The canonical trace collector sees every lifecycle event the run
	// produces; a caller-supplied trace sink rides along as a tee.
	tc := &traceCollector{h: sha256.New(), tee: sc.sink}
	fe.SetSink(tc)
	defer fe.SetSink(nil)

	scripts := plan.Scripts
	start := sys.Kernel.Services().Clock.Now()

	// Login storm: every dial is queued before the listener process runs
	// once, so attach latency spreads across the accept queue.
	conns := make([]*netattach.Conn, len(scripts))
	for i, s := range scripts {
		c, err := fe.DialAsync(s.Person, s.Project, s.Password, s.Level)
		if err != nil {
			return nil, fmt.Errorf("workload: dial %d: %w", i, err)
		}
		conns[i] = c
	}
	fe.Flush()
	rep := &Report{Scenario: sc.name, Conns: len(scripts), Steps: plan.MaxSteps()}
	dead := make([]bool, len(conns))
	for i, c := range conns {
		if c.State() != netattach.StateAttached {
			if sc.faults == nil {
				return nil, fmt.Errorf("workload: connection %d not attached: %v (%v)",
					i, c.State(), c.Err())
			}
			dead[i] = true
			rep.Failed++
		}
	}

	// Each session hashes its own replies into its own transcript; the
	// folds below walk the table in index order.
	hs := make([]hash.Hash, len(conns))
	tallies := make([]Tally, len(conns))
	for i := range conns {
		hs[i] = sha256.New()
		if dead[i] {
			tallies[i].Err = fmt.Errorf("workload: connection %d never attached", i)
		}
	}
	Replay(plan, 0, plan.MaxSteps(), Target{
		Conn:  func(i int) *netattach.Conn { return conns[i] },
		Flush: fe.Flush,
	}, hs, tallies)
	digests := make([][]byte, len(conns))
	for i := range tallies {
		digests[i] = hs[i].Sum(nil)
		if tallies[i].Err != nil {
			if sc.faults == nil {
				return nil, tallies[i].Err
			}
			if !dead[i] {
				// Already counted when the attach failed; count fresh
				// session failures here.
				rep.Failed++
				dead[i] = true
			}
			continue
		}
		rep.Sent += tallies[i].Sent
		rep.Received += tallies[i].Received
		rep.Throttled += tallies[i].Throttled
	}

	// Logout in table order.
	for i, c := range conns {
		if err := c.Close(); err != nil {
			if sc.faults == nil {
				return nil, fmt.Errorf("workload: close %d: %w", i, err)
			}
			continue
		}
	}

	rep.Stats = fe.Stats()
	rep.Cycles = sys.Kernel.Services().Clock.Now() - start
	if rep.Cycles > 0 {
		rep.Throughput = float64(rep.Stats.Processed) / float64(rep.Cycles) * 1000
	}
	// Fold the per-connection digests in fixed table order, then the
	// run-wide counters: the determinism witness.
	h := sha256.New()
	for i := range tallies {
		fmt.Fprintf(h, "conn %d %x sent %d received %d throttled %d dead %v\n",
			i, digests[i], tallies[i].Sent, tallies[i].Received, tallies[i].Throttled, dead[i])
	}
	fmt.Fprintf(h, "sent %d received %d throttled %d failed %d lost %d/%d drops %d\n",
		rep.Sent, rep.Received, rep.Throttled, rep.Failed,
		rep.Stats.InputLost, rep.Stats.ReplyLost, rep.Stats.ReplyDrops)
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	// SessionDigest uses the fleet runner's exact fold, so the two
	// engines' outputs compare byte-for-byte (E21's cross-kernel-count
	// witness).
	sh := sha256.New()
	for i := range tallies {
		fmt.Fprintf(sh, "session %d %x\n", i, digests[i])
	}
	rep.SessionDigest = hex.EncodeToString(sh.Sum(nil))
	rep.ScheduleDigest = plan.ScheduleDigest()
	rep.TraceDigest = hex.EncodeToString(tc.h.Sum(nil))

	// Per-persona breakdown: sessions are grouped by plan persona, attach
	// latencies (fixed under the login flush) are ranked for
	// percentiles, and the sections are sorted by name so the JSON and
	// terminal renderings are byte-identical across runs.
	byName := map[string]*PersonaReport{}
	attach := map[string][]int64{}
	for i := range tallies {
		name := plan.Personas[i]
		pr := byName[name]
		if pr == nil {
			pr = &PersonaReport{Name: name}
			byName[name] = pr
		}
		pr.Sessions++
		pr.Sent += tallies[i].Sent
		pr.Received += tallies[i].Received
		pr.Throttled += tallies[i].Throttled
		if dead[i] {
			pr.Failed++
		} else {
			attach[name] = append(attach[name], conns[i].AttachLatency())
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pr := byName[name]
		if ls := attach[name]; len(ls) > 0 {
			sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
			pr.AttachP50 = ls[len(ls)*50/100]
			pr.AttachP99 = ls[len(ls)*99/100]
		}
		ph := sha256.New()
		for i := range tallies {
			if plan.Personas[i] == name {
				fmt.Fprintf(ph, "session %d %x\n", i, digests[i])
			}
		}
		pr.Digest = hex.EncodeToString(ph.Sum(nil))
		rep.Personas = append(rep.Personas, *pr)
	}

	// Fold the session outcomes into the kernel's unified metrics
	// registry.
	reg := sys.Kernel.Services().Metrics
	reg.Counter("workload.sessions").Add(int64(rep.Conns))
	reg.Counter("workload.failed").Add(rep.Failed)
	reg.Counter("workload.sent").Add(rep.Sent)
	reg.Counter("workload.received").Add(rep.Received)
	reg.Counter("workload.throttled").Add(rep.Throttled)
	for _, pr := range rep.Personas {
		prefix := "workload.persona." + pr.Name
		reg.Counter(prefix + ".sessions").Add(int64(pr.Sessions))
		reg.Counter(prefix + ".sent").Add(pr.Sent)
		reg.Counter(prefix + ".received").Add(pr.Received)
		reg.Counter(prefix + ".failed").Add(pr.Failed)
	}
	return rep, nil
}

// traceCollector is the engine's canonical trace consumer: it hashes
// the front-end's lifecycle events in arrival order and optionally tees
// the raw stream to a caller-supplied sink. One goroutine drives the
// replay, so the arrival order is a function of the plan.
type traceCollector struct {
	h   hash.Hash
	tee trace.Sink
}

func (tc *traceCollector) Record(ev trace.Event) {
	fmt.Fprintf(tc.h, "%d %v %s %d %d %v %s\n",
		ev.Subject, ev.Stage, ev.Name, ev.Arg, ev.Cost, ev.Outcome, ev.Detail)
	if tc.tee != nil {
		tc.tee.Record(ev)
	}
}

// RunAt boots a fresh system at the stage, runs the scenario, shuts the
// system down, and returns the report: the one-call form used by
// cmd/loadgen and the experiments.
func RunAt(stage multics.Stage, sc *Scenario) (*Report, error) {
	sys, err := Boot(stage, sc)
	if err != nil {
		return nil, err
	}
	defer sys.Shutdown()
	return Run(sys, sc)
}
