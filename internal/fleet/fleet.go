// Package fleet composes N independent security kernels into one
// serving system: the road from one simulated 6180 to "millions of
// users" is not a faster kernel but a fleet of them. Each member boots
// its own core.Kernel (own virtual clock, own metrics registry, own
// seeded fault plan) behind its own netattach front-end; a
// consistent-hash router in front maps every session principal
// (person, project) stably to one kernel; and live migration drains a
// session on its home kernel, snapshots its KST/connection state, and
// replay-attaches it on the target with a byte-identical transcript.
//
// The fleet deliberately reaches member kernels only through their
// public composition surface — multics.System, netattach.Frontend, and
// core.Kernel.Services() — never through deeper kernel packages;
// scripts/check.sh enforces that isolation. Determinism discipline is
// unchanged from the single-kernel engine: every reply is a pure
// function of its session's script, so the per-session transcript
// digest is byte-identical at any kernel count and across any number
// of migrations.
package fleet

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/netattach"
	"repro/multics"
)

// Config parameterizes fleet construction.
type Config struct {
	// Kernels is the member count (default 1).
	Kernels int
	// Stage is the kernel configuration stage for every member. Fleets
	// default to the restructured kernel; pass an explicit stage to
	// front older configurations.
	Stage multics.Stage
	// StageSet marks Stage as intentional even when it is the zero
	// value (S0Baseline); without it a zero Stage selects
	// multics.StageRestructured.
	StageSet bool
	// Workers/MaxConns parameterize each member's front-end (zero
	// values select the netattach defaults).
	Workers  int
	MaxConns int
	// MemFrames, when positive, sizes each member's primary memory and
	// bulk store (CoreFrames/BulkBlocks) for the expected session load;
	// zero keeps the kernel's memory defaults.
	MemFrames int
	// FaultRate, when positive, gives every member its own
	// deterministic fault plan at this uniform rate; member i's plan
	// seed is derived from FaultSeed so no two kernels share a plan.
	FaultRate float64
	FaultSeed int64
}

// Member is one kernel of the fleet.
type Member struct {
	// Index is the member's stable fleet position (the value the
	// router returns).
	Index int
	// Sys is the booted system; Sys.Kernel.Services() is the kernel's
	// composition surface.
	Sys *multics.System
	// FE is the member's network attachment front-end.
	FE *netattach.Frontend
}

// Fleet is N kernels behind one consistent-hash session router.
type Fleet struct {
	cfg     Config
	mu      sync.Mutex
	ring    *Ring
	members []*Member

	// reg is the fleet-level metrics registry: router and migration
	// counters. Per-kernel planes stay per-kernel — each member's
	// registry is at Member.Sys.Kernel.Services().Metrics.
	reg                *metrics.Registry
	mRouted            *metrics.Counter
	mMigrations        *metrics.Counter
	mMigrationFailures *metrics.Counter
}

// New boots a fleet of cfg.Kernels members. Each member gets its own
// kernel (clock, metrics registry, fault plan) and its own front-end.
func New(cfg Config) (*Fleet, error) {
	if cfg.Kernels == 0 {
		cfg.Kernels = 1
	}
	if cfg.Kernels < 1 {
		return nil, fmt.Errorf("fleet: %d kernels", cfg.Kernels)
	}
	if cfg.Stage == 0 && !cfg.StageSet {
		cfg.Stage = multics.StageRestructured
	}
	if cfg.FaultRate < 0 || cfg.FaultRate > 1 {
		return nil, fmt.Errorf("fleet: fault rate %v outside [0, 1]", cfg.FaultRate)
	}
	f := &Fleet{
		cfg:  cfg,
		ring: NewRing(),
		reg:  metrics.New(),
	}
	f.mRouted = f.reg.Counter("fleet.routed")
	f.mMigrations = f.reg.Counter("fleet.migrations")
	f.mMigrationFailures = f.reg.Counter("fleet.migration_failures")
	for i := 0; i < cfg.Kernels; i++ {
		m, err := f.bootMember(i)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: booting kernel %d: %w", i, err)
		}
		f.members = append(f.members, m)
		f.ring.Add(i)
	}
	return f, nil
}

// bootMember builds one kernel + front-end.
func (f *Fleet) bootMember(i int) (*Member, error) {
	kcfg := core.Config{Stage: f.cfg.Stage}
	if f.cfg.MemFrames > 0 {
		mc := mem.DefaultConfig()
		mc.CoreFrames = f.cfg.MemFrames
		mc.BulkBlocks = f.cfg.MemFrames
		kcfg.Mem = &mc
	}
	if f.cfg.FaultRate > 0 {
		// Distinct deterministic plan per member: the derivation is a
		// fixed affine step so plans never collide and runs reproduce.
		spec := faults.UniformSpec(f.cfg.FaultSeed+int64(i)*1000003, f.cfg.FaultRate, 0)
		kcfg.Faults = &spec
	}
	sys, err := multics.NewWithConfig(kcfg)
	if err != nil {
		return nil, err
	}
	fe, err := sys.Serve(netattach.Config{Workers: f.cfg.Workers, MaxConns: f.cfg.MaxConns})
	if err != nil {
		sys.Shutdown()
		return nil, err
	}
	return &Member{Index: i, Sys: sys, FE: fe}, nil
}

// Close shuts every member down. The fleet is unusable afterwards.
func (f *Fleet) Close() {
	f.mu.Lock()
	members := f.members
	f.members = nil
	f.mu.Unlock()
	for _, m := range members {
		m.Sys.Shutdown()
	}
}

// Size returns the member count.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Member returns member i.
func (f *Fleet) Member(i int) *Member {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[i]
}

// Metrics returns the fleet-level metrics registry (router and
// migration counters). Per-kernel counters live in each member's own
// registry.
func (f *Fleet) Metrics() *metrics.Registry { return f.reg }

// AddUser registers an account on every member, so any kernel can
// authenticate the principal — the precondition for routing freedom and
// for migration (the target kernel re-authenticates the session).
func (f *Fleet) AddUser(person, project, password string, clearance multics.Level) error {
	f.mu.Lock()
	members := append([]*Member(nil), f.members...)
	f.mu.Unlock()
	for _, m := range members {
		if err := m.Sys.AddUser(person, project, password, clearance); err != nil {
			return fmt.Errorf("fleet: registering %s.%s on kernel %d: %w", person, project, m.Index, err)
		}
	}
	return nil
}

// Route returns the home kernel of (person, project): stable across
// calls, runs, and fleet restarts of the same size.
func (f *Fleet) Route(person, project string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mRouted.Inc()
	return f.ring.Lookup(SessionKey(person, project))
}

// Attach routes the principal to its home kernel and dials that
// member's front-end, returning the fleet session.
func (f *Fleet) Attach(person, project, password string, level multics.Level) (*Session, error) {
	home := f.Route(person, project)
	m := f.Member(home)
	conn, err := m.FE.Dial(person, project, password, level)
	if err != nil {
		return nil, fmt.Errorf("fleet: attach %s.%s on kernel %d: %w", person, project, home, err)
	}
	return &Session{
		f: f, person: person, project: project, password: password,
		level: level, home: home, conn: conn,
	}, nil
}

// errClosed reports operations on a closed fleet.
var errClosed = errors.New("fleet: closed")
