// Package faults is the kernel's deterministic fault-injection plane.
//
// Schroeder's security-kernel argument is that the kernel is the minimal
// mechanism whose correct behavior must survive everything else
// misbehaving — so the reproduction must be exercised under failure, not
// just under load. This package interposes seeded, replayable faults on
// three layers:
//
//   - the mem backing store (I/O errors that abort a transfer, torn
//     writes that corrupt a page on its way out of core),
//   - the interrupt/device layer (lost and duplicated interrupts), and
//   - netattach connections (mid-session resets and stalls),
//
// according to a Plan compiled from a Spec (seed + per-point rates).
// Every decision is a pure function of (seed, injection point, stable
// entity identity, per-entity occurrence number), never of wall-clock
// time or goroutine interleaving — so the same Plan produces the same
// faults whether the workload replays with 1 worker or 8, and every
// crash is reproducible from its seed.
//
// The plane's counterpart is the set of recovery paths it forces into
// existence: bounded retry-with-backoff in pagectl and iosys, drain-and-
// requeue in netattach, redelivery of stashed interrupts, and the fs
// salvager repairing a simulated crash. Injected faults are threaded
// through the kernel's trace ring as trace.StageInject events stamped
// with the virtual cycle they landed on; no other package may construct
// such events (scripts/check.sh enforces this).
package faults

import (
	"fmt"
	"math"
)

// Point identifies one injection point in the plane.
type Point uint8

const (
	// PointMemIO: a backing-store transfer fails with mem.ErrIO.
	PointMemIO Point = iota
	// PointTornWrite: a write-direction transfer corrupts one word.
	PointTornWrite
	// PointIntLost: a device interrupt is dropped (stashed for
	// redelivery).
	PointIntLost
	// PointIntDup: a device interrupt is delivered twice.
	PointIntDup
	// PointConnReset: a connection's pending read is reset mid-flight.
	PointConnReset
	// PointConnStall: a connection's service pass stalls.
	PointConnStall
	// PointCrash: an object is corrupted by the simulated crash.
	PointCrash
	// PointStoreTear: the backing store's journal loses part of its
	// unsynced tail in the simulated crash. The point has no rate — the
	// crash driver always tears when handed a journal — but its decision
	// hash picks, deterministically per plan, how many unsynced bytes
	// survive.
	PointStoreTear
	numPoints
)

func (p Point) String() string {
	switch p {
	case PointMemIO:
		return "mem-io"
	case PointTornWrite:
		return "torn-write"
	case PointIntLost:
		return "int-lost"
	case PointIntDup:
		return "int-dup"
	case PointConnReset:
		return "conn-reset"
	case PointConnStall:
		return "conn-stall"
	case PointCrash:
		return "crash-corrupt"
	case PointStoreTear:
		return "store-tear"
	default:
		return "?"
	}
}

// Spec is the seed + rate specification a Plan is compiled from. Rates
// are probabilities in [0, 1] applied independently at each opportunity
// for the point in question.
type Spec struct {
	// Seed selects the plan. Two runs with equal Specs inject identical
	// faults at identical points.
	Seed int64
	// MemIORate is the probability that a backing-store transfer
	// (materialize, page-in, eviction) fails with mem.ErrIO.
	MemIORate float64
	// TornWriteRate is the probability that a committed write-direction
	// transfer corrupts one deterministically chosen word of the page.
	TornWriteRate float64
	// IntLostRate / IntDupRate are the probabilities that a raised
	// interrupt is dropped or delivered twice.
	IntLostRate float64
	IntDupRate  float64
	// ConnResetRate / ConnStallRate are the probabilities that a
	// connection service pass is reset mid-read or stalled.
	ConnResetRate float64
	ConnStallRate float64
	// CrashObjects is how many hierarchy objects the simulated crash
	// corrupts before the salvager runs.
	CrashObjects int
}

// UniformSpec returns a Spec with every rate set to rate — the shape the
// fault-storm experiment sweeps.
func UniformSpec(seed int64, rate float64, crashObjects int) Spec {
	return Spec{
		Seed:          seed,
		MemIORate:     rate,
		TornWriteRate: rate,
		IntLostRate:   rate,
		IntDupRate:    rate,
		ConnResetRate: rate,
		ConnStallRate: rate,
		CrashObjects:  crashObjects,
	}
}

// Plan is a compiled, immutable fault plan. A decision for (point, keys)
// is a pure function of the plan — no state, no randomness — so one plan
// can be shared by many injectors and replays are exact.
type Plan struct {
	spec   Spec
	seed   uint64
	thresh [numPoints]uint64
}

// Compile validates spec and compiles it into a Plan.
func Compile(spec Spec) (*Plan, error) {
	rates := []struct {
		name string
		pt   Point
		r    float64
	}{
		{"MemIORate", PointMemIO, spec.MemIORate},
		{"TornWriteRate", PointTornWrite, spec.TornWriteRate},
		{"IntLostRate", PointIntLost, spec.IntLostRate},
		{"IntDupRate", PointIntDup, spec.IntDupRate},
		{"ConnResetRate", PointConnReset, spec.ConnResetRate},
		{"ConnStallRate", PointConnStall, spec.ConnStallRate},
	}
	p := &Plan{spec: spec, seed: uint64(spec.Seed)}
	for _, e := range rates {
		if math.IsNaN(e.r) || e.r < 0 || e.r > 1 {
			return nil, fmt.Errorf("faults: %s %v outside [0, 1]", e.name, e.r)
		}
		// Scale the probability onto the full 64-bit hash range, clamping
		// against float rounding at the top end.
		v := e.r * float64(1<<63) * 2
		if v >= math.MaxUint64 {
			p.thresh[e.pt] = math.MaxUint64
		} else {
			p.thresh[e.pt] = uint64(v)
		}
	}
	if spec.CrashObjects < 0 {
		return nil, fmt.Errorf("faults: CrashObjects %d negative", spec.CrashObjects)
	}
	return p, nil
}

// MustCompile is Compile for specs known valid at authoring time.
func MustCompile(spec Spec) *Plan {
	p, err := Compile(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// Spec returns the specification the plan was compiled from.
func (p *Plan) Spec() Spec { return p.spec }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds one 64-bit value into an FNV-1a hash state byte by byte.
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// hash is the plan's decision hash over (seed, point, keys): uniform on
// [0, 2^64), deterministic, and independent across distinct key tuples.
func (p *Plan) hash(pt Point, keys ...uint64) uint64 {
	h := mix(uint64(fnvOffset), p.seed)
	h = mix(h, uint64(pt))
	for _, k := range keys {
		h = mix(h, k)
	}
	return h
}

// Decide reports whether the plan injects a fault at point pt for the
// given key tuple. Callers pass stable entity identities plus a
// per-entity occurrence number, never anything derived from scheduling.
func (p *Plan) Decide(pt Point, keys ...uint64) bool {
	if int(pt) >= int(numPoints) || p.thresh[pt] == 0 {
		return false
	}
	return p.hash(pt, keys...) < p.thresh[pt]
}

// HashKey exposes the decision hash for derived deterministic choices
// (which word a torn write corrupts, which corruption kind a crash
// applies to an object).
func (p *Plan) HashKey(pt Point, keys ...uint64) uint64 { return p.hash(pt, keys...) }
