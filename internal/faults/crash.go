package faults

import (
	"sort"

	"repro/internal/fs"
)

// crashKinds are the corruption classes a simulated crash applies — the
// structural damage accumulated torn writes surface at reboot. Each is
// one the salvager repairs deterministically (ParentMismatch and
// LabelInversion are excluded: the former cannot always be faked, the
// latter is deliberately report-only).
var crashKinds = []fs.ProblemKind{
	fs.OrphanObject,
	fs.NameMismatch,
	fs.MissingStorage,
	fs.DanglingEntry,
}

// Crash simulates a crash against h: up to Spec.CrashObjects hierarchy
// objects, chosen and damaged deterministically from the plan, are
// corrupted. Targets are ranked by decision hash over their UIDs (never
// the root), so the same plan damages the same objects in the same way
// regardless of how the preceding workload was scheduled. Returns the
// number of objects actually corrupted.
func (in *Injector) Crash(h *fs.Hierarchy) int {
	target := in.plan.Spec().CrashObjects
	if target <= 0 {
		return 0
	}
	type cand struct {
		uid  uint64
		rank uint64
	}
	var cands []cand
	for _, uid := range h.UIDs() {
		if uid == fs.RootUID {
			continue
		}
		cands = append(cands, cand{uid: uid, rank: in.plan.HashKey(PointCrash, uid)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rank != cands[j].rank {
			return cands[i].rank < cands[j].rank
		}
		return cands[i].uid < cands[j].uid
	})
	corrupted := 0
	for _, c := range cands {
		if corrupted >= target {
			break
		}
		kind := crashKinds[in.plan.HashKey(PointCrash, c.uid, 1)%uint64(len(crashKinds))]
		// A pick can fail when an earlier corruption already consumed the
		// object (e.g. its parent became a dangling entry); the failure is
		// itself deterministic, so skipping keeps replays exact.
		if err := h.CorruptForTesting(kind, c.uid); err != nil {
			continue
		}
		corrupted++
		in.counts.CrashCorruptions++
		in.emit(PointCrash, c.uid, uint64(kind), "simulated crash damage: "+kind.String())
	}
	return corrupted
}

// CrashAndSalvage runs Crash and then the salvager in repair mode,
// returning the number of objects corrupted and the salvage report.
func (in *Injector) CrashAndSalvage(h *fs.Hierarchy) (int, *fs.SalvageReport, error) {
	n := in.Crash(h)
	rep, err := h.Salvage(true)
	return n, rep, err
}
