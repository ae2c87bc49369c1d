package policy

import (
	"errors"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagectl"
)

// ErrNoChoice is returned by policy code that finds no evictable frame.
var ErrNoChoice = errors.New("policy: no evictable frame")

// ClockPolicyCode returns ring-resident policy code implementing the
// second-chance clock algorithm purely through the mechanism gates: it
// reads frame count and usage bits via gate calls, keeps its clock hand in
// its private scratch segment, and never sees a page's identity or
// contents.
func ClockPolicyCode() *machine.Procedure {
	return &machine.Procedure{
		Name: "clock_policy",
		Entries: []machine.EntryFunc{func(ctx *machine.ExecContext, _ []uint64) ([]uint64, error) {
			nOut, err := ctx.Call(GateSeg, EntryFrameCount, nil)
			if err != nil {
				return nil, err
			}
			n := int(nOut[0])
			if n == 0 {
				return nil, ErrNoChoice
			}
			hand, err := ctx.Load(ScratchSeg, 0)
			if err != nil {
				return nil, err
			}
			for sweep := 0; sweep < 2*n; sweep++ {
				f := (hand + uint64(sweep)) % uint64(n)
				uOut, err := ctx.Call(GateSeg, EntryUsage, []uint64{f})
				if err != nil {
					return nil, err
				}
				bits := uOut[0]
				if bits&(UsageFree|UsageWired) != 0 {
					continue
				}
				if bits&UsageUsed != 0 {
					if _, err := ctx.Call(GateSeg, EntryResetUsage, []uint64{f}); err != nil {
						return nil, err
					}
					continue
				}
				if err := ctx.Store(ScratchSeg, 0, f+1); err != nil {
					return nil, err
				}
				return []uint64{f}, nil
			}
			// Everything referenced: take the first occupied, unwired frame.
			for f := uint64(0); f < uint64(n); f++ {
				uOut, err := ctx.Call(GateSeg, EntryUsage, []uint64{f})
				if err != nil {
					return nil, err
				}
				if uOut[0]&(UsageFree|UsageWired) == 0 {
					return []uint64{f}, nil
				}
			}
			return nil, ErrNoChoice
		}},
	}
}

// AttackLog records what an adversarial policy attempted and what stopped
// it. The E7 experiment asserts that the "succeeded" counters stay zero
// while the "blocked" counters grow.
type AttackLog struct {
	// RingFaultsBlocked counts direct kernel-data references stopped by
	// the ring brackets.
	RingFaultsBlocked int
	// GateFaultsBlocked counts calls to non-gate kernel entries stopped by
	// the gate check.
	GateFaultsBlocked int
	// SegFaultsBlocked counts references to segments not mapped in the
	// policy's domain.
	SegFaultsBlocked int
	// WiredDenials counts evictions of wired (kernel) frames refused by
	// the mechanism's own validation.
	WiredDenials int
	// DenialMoves counts gratuitous but authorized evictions — pure denial
	// of use, which the paper concedes a bad policy can always cause.
	DenialMoves int
	// UnauthorizedReads/UnauthorizedWrites count protection FAILURES: the
	// policy actually observed or modified information it should not have.
	// They must remain zero.
	UnauthorizedReads  int
	UnauthorizedWrites int
}

// AdversarialPolicyCode returns policy code that actively attempts every
// unauthorized action available to it before finally making a legal (but
// hostile) choice. Each attempt's outcome is recorded in log.
func AdversarialPolicyCode(log *AttackLog) *machine.Procedure {
	return &machine.Procedure{
		Name: "adversarial_policy",
		Entries: []machine.EntryFunc{func(ctx *machine.ExecContext, _ []uint64) ([]uint64, error) {
			// Attack 1: read a kernel data base mapped with kernel-only
			// brackets. The hardware ring check must stop this.
			if v, err := ctx.Load(KernelDataSeg, 0); err == nil {
				log.UnauthorizedReads++
				_ = v
			} else if machine.IsFaultClass(err, machine.FaultRing) {
				log.RingFaultsBlocked++
			}
			// Attack 2: write the same kernel data base.
			if err := ctx.Store(KernelDataSeg, 0, 0xdead); err == nil {
				log.UnauthorizedWrites++
			} else if machine.IsFaultClass(err, machine.FaultRing) {
				log.RingFaultsBlocked++
			}
			// Attack 3: call the mechanism segment at an entry that is not
			// a declared gate (probing for hidden entries).
			if _, err := ctx.Call(GateSeg, NumGates+3, nil); err == nil {
				log.UnauthorizedReads++
			} else if machine.IsFaultClass(err, machine.FaultGate) {
				log.GateFaultsBlocked++
			}
			// Attack 4: reference a segment number that is not mapped in
			// this domain (hoping for a dangling descriptor).
			if _, err := ctx.Load(machine.SegNo(6), 0); err == nil {
				log.UnauthorizedReads++
			} else if machine.IsFaultClass(err, machine.FaultSegment) {
				log.SegFaultsBlocked++
			}
			// Attack 5: ask the mechanism to evict a wired kernel frame.
			nOut, err := ctx.Call(GateSeg, EntryFrameCount, nil)
			if err != nil {
				return nil, err
			}
			n := uint64(nOut[0])
			for f := uint64(0); f < n; f++ {
				uOut, err := ctx.Call(GateSeg, EntryUsage, []uint64{f})
				if err != nil {
					return nil, err
				}
				if uOut[0]&UsageWired != 0 {
					if _, err := ctx.Call(GateSeg, EntryMoveToBulk, []uint64{f}); err == nil {
						log.UnauthorizedWrites++
					} else {
						log.WiredDenials++
					}
					break
				}
			}
			// Finally: denial of use. Evict the first legal frame we can
			// find — gratuitously, every time we are asked.
			for f := uint64(0); f < n; f++ {
				uOut, err := ctx.Call(GateSeg, EntryUsage, []uint64{f})
				if err != nil {
					return nil, err
				}
				if uOut[0]&(UsageFree|UsageWired) == 0 {
					log.DenialMoves++
					return []uint64{f}, nil
				}
			}
			return nil, ErrNoChoice
		}},
	}
}

// RingPolicy adapts a policy Domain to pagectl.VictimPolicy, so a kernel
// pager can delegate victim selection to ring-separated policy code. A
// policy failure or an illegal choice falls back to FIFO — the kernel
// treats a misbehaving policy as a denial-of-service, never as a reason to
// bypass protection.
type RingPolicy struct {
	Domain *Domain
	// Fallbacks counts decisions the kernel had to make itself because the
	// policy failed or chose an invalid victim.
	Fallbacks int64
	fallback  pagectl.FIFOPolicy
}

var _ pagectl.VictimPolicy = (*RingPolicy)(nil)

// NewRingPolicy returns the adapter.
func NewRingPolicy(d *Domain) *RingPolicy { return &RingPolicy{Domain: d} }

// ChooseVictim implements pagectl.VictimPolicy. The policy's choice is
// checked against live frame state: it must name a frame in range that is
// occupied and unwired, whatever the policy claims.
func (r *RingPolicy) ChooseVictim(store *mem.Store) (mem.FrameID, error) {
	if choice, err := r.Domain.Choose(); err == nil {
		if info, err := store.FrameInfo(choice); err == nil && info.Evictable() {
			return choice, nil
		}
	}
	r.Fallbacks++
	return r.fallback.ChooseVictim(store)
}
