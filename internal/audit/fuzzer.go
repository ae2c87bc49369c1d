package audit

// The adversarial fuzzer is the penetration catalog's volume arm: where
// the Suite runs eleven curated attacks once each, the fuzzer throws a
// seeded storm of mutated gate calls, cross-level initiations, label
// flips and raw machine probes at a kernel — optionally while the fault
// plane is injecting I/O errors and lost interrupts underneath — and
// checks a small set of access-control invariants on every probe:
//
//   - the kernel never panics and the supervisor never malfunctions
//     (at stages past the baseline);
//   - a secret canary segment with a wide-open discretionary ACL is
//     never readable by an unclassified process, no matter what the
//     storm did before the probe;
//   - a freshly built descriptor always respects the segment's current
//     label, including labels the fuzzer itself just flipped;
//   - privileged gates and out-of-range gate entries stay unreachable
//     from the user ring;
//   - after the storm the kernel still serves legitimate calls.
//
// Every decision — which gate, which arguments, which probe — is a pure
// hash of (seed, call index), so a FuzzConfig names one exact storm:
// the report digest is byte-identical across runs, which is what lets
// E21 assert the storm itself, not just its verdict.

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fs"
	"repro/internal/gate"
	"repro/internal/machine"
	"repro/internal/mls"
	"repro/internal/trace"
)

// FuzzConfig selects one deterministic fuzzing storm.
type FuzzConfig struct {
	// Stage is the kernel configuration under attack. The fuzzer drives
	// the UID-keyed address-space interface, so it needs S2 or later.
	Stage core.Stage
	// Seed selects the storm: every mutation decision is a pure hash of
	// (Seed, call index).
	Seed int64
	// Calls is how many fuzzed operations to fire (default 10000).
	Calls int
	// FaultRate, when positive, boots the kernel with a uniform fault
	// plan at this rate (backing-store I/O errors, torn writes, lost
	// and duplicated interrupts, connection faults) so the invariants
	// are checked while the recovery paths are busy.
	FaultRate float64
}

// FuzzReport is one storm's outcome. The class counters partition every
// fuzzed gate call by the gate spine's taxonomy; Violations lists each
// broken invariant (empty is the pass condition); Digest folds every
// probe's outcome, so equal seeds must produce equal digests.
type FuzzReport struct {
	Calls        int64    `json:"calls"`
	OK           int64    `json:"ok"`
	Rejected     int64    `json:"rejected"`
	Denied       int64    `json:"denied"`
	Busy         int64    `json:"busy"`
	Failed       int64    `json:"failed"`
	Malfunctions int64    `json:"malfunctions"`
	LabelFlips   int64    `json:"label_flips"`
	CanaryProbes int64    `json:"canary_probes"`
	Violations   []string `json:"violations,omitempty"`
	Digest       string   `json:"digest"`
}

// Format renders the report as a short table.
func (r *FuzzReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz: %d calls  ok %d  rejected %d  denied %d  busy %d  failed %d  malfunctions %d\n",
		r.Calls, r.OK, r.Rejected, r.Denied, r.Busy, r.Failed, r.Malfunctions)
	fmt.Fprintf(&b, "fuzz: %d label flips, %d canary probes, %d violations\n",
		r.LabelFlips, r.CanaryProbes, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "fuzz: VIOLATION %s\n", v)
	}
	fmt.Fprintf(&b, "fuzz: digest %s\n", r.Digest)
	return b.String()
}

// fzMix is splitmix64, the same finalizer the workload personas use.
func fzMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fzChain folds the parts into one decision hash.
func fzChain(parts ...uint64) uint64 {
	h := uint64(0x452821e638d01377)
	for _, p := range parts {
		h = fzMix(h ^ p)
	}
	return h
}

// fzArgs builds call i's mutated argument list: the arity and each
// word's shape (zero, all-ones, huge power of two, small label-sized
// value, raw hash, truncated hash) all come off the hash chain.
func fzArgs(seed, i uint64) []uint64 {
	n := fzChain(seed, i, 3) % 9
	args := make([]uint64, n)
	for j := range args {
		v := fzChain(seed, i, 10+uint64(j))
		switch v % 6 {
		case 0:
			args[j] = 0
		case 1:
			args[j] = ^uint64(0)
		case 2:
			args[j] = 1 << 60
		case 3:
			args[j] = v % 16
		case 4:
			args[j] = v
		default:
			args[j] = v >> 32
		}
	}
	return args
}

var (
	fuzzLowID  = acl.Principal{Person: "FuzzLow", Project: "Audit", Tag: "a"}
	fuzzHighID = acl.Principal{Person: "FuzzHigh", Project: "Audit", Tag: "a"}
)

const fuzzCanaryWord = uint64(0x5ec3e7f0)

// Fuzz boots a kernel at cfg.Stage (with cfg.FaultRate of injected
// faults), runs the storm, and returns the report. The error return
// covers setup problems only; invariant breaks land in
// FuzzReport.Violations.
func Fuzz(cfg FuzzConfig) (*FuzzReport, error) {
	if cfg.Stage < core.S2RefNamesRemoved {
		return nil, fmt.Errorf("audit: fuzzer needs the UID-keyed interface (stage >= %v), got %v",
			core.S2RefNamesRemoved, cfg.Stage)
	}
	if cfg.Calls <= 0 {
		cfg.Calls = 10000
	}
	kc := core.Config{Stage: cfg.Stage}
	if cfg.FaultRate > 0 {
		spec := faults.UniformSpec(cfg.Seed, cfg.FaultRate, 0)
		kc.Faults = &spec
	}
	k, err := core.New(kc)
	if err != nil {
		return nil, err
	}
	defer k.Shutdown()

	low, err := k.CreateProcess("fuzz-low", fuzzLowID, mls.NewLabel(mls.Unclassified), machine.UserRing)
	if err != nil {
		return nil, err
	}
	high, err := k.CreateProcess("fuzz-high", fuzzHighID, mls.NewLabel(mls.Secret), machine.UserRing)
	if err != nil {
		return nil, err
	}

	hier := k.Services().Hierarchy
	wideOpen := acl.New(acl.Entry{
		Who:  acl.Pattern{Person: acl.Wildcard, Project: acl.Wildcard, Tag: acl.Wildcard},
		Mode: acl.ModeRead | acl.ModeWrite,
	})
	// The canary: secret label, wide-open discretionary ACL. Only the
	// mandatory policy stands between the low process and its contents.
	canary, err := hier.Create(fuzzHighID, mls.NewLabel(mls.Unclassified), fs.RootUID, "fuzz_canary",
		fs.CreateOptions{Kind: fs.KindSegment, Label: mls.NewLabel(mls.Secret), Length: 8, ACL: wideOpen})
	if err != nil {
		return nil, fmt.Errorf("audit: staging canary: %w", err)
	}
	out, err := high.CallGate("hcs_$initiate_uid", canary)
	if err != nil {
		return nil, fmt.Errorf("audit: cleared process cannot reach the canary: %w", err)
	}
	if err := high.CPU.Store(machine.SegNo(out[0]), 0, fuzzCanaryWord); err != nil {
		return nil, fmt.Errorf("audit: planting canary word: %w", err)
	}
	// The scratch segment's label is flipped mid-storm; its current
	// level is tracked so every fresh descriptor can be judged.
	scratch, err := hier.Create(fuzzHighID, mls.NewLabel(mls.Unclassified), fs.RootUID, "fuzz_scratch",
		fs.CreateOptions{Kind: fs.KindSegment, Label: mls.NewLabel(mls.Unclassified), Length: 8, ACL: wideOpen})
	if err != nil {
		return nil, fmt.Errorf("audit: staging scratch: %w", err)
	}
	scratchLevel := mls.Unclassified

	rep := &FuzzReport{}
	violate := func(format string, a ...any) {
		if len(rep.Violations) < 32 {
			rep.Violations = append(rep.Violations, fmt.Sprintf(format, a...))
		}
	}
	h := sha256.New()
	seed := uint64(cfg.Seed)
	names := k.Services().UserGates.Names()
	priv := k.Services().PrivGates.Names()
	crashes0 := k.SystemCrashes

	count := func(err error) {
		switch gate.Classify(err) {
		case trace.ClassOK:
			rep.OK++
		case trace.ClassBadArgs:
			rep.Rejected++
		case trace.ClassAccessDenied:
			rep.Denied++
		case trace.ClassBusy:
			rep.Busy++
		default:
			rep.Failed++
		}
	}
	errBit := func(err error) int {
		if err == nil {
			return 0
		}
		return 1
	}
	// freshProbe rebuilds the low process's descriptor for uid from
	// scratch (terminate, then initiate) and checks that a read succeeds
	// only if the segment's current level is dominated by Unclassified.
	freshProbe := func(i int, uid uint64, secretNow bool, what string) {
		if seg, ok := low.KST.SegNoForUID(uid); ok {
			_, terr := low.CallGate("hcs_$terminate_seg", uint64(seg))
			fmt.Fprintf(h, "%d term %d\n", i, errBit(terr))
		}
		out, err := low.CallGate("hcs_$initiate_uid", uid)
		count(err)
		if err != nil {
			fmt.Fprintf(h, "%d init %d %d\n", i, gate.Classify(err), 1)
			return
		}
		_, lerr := low.CPU.Load(machine.SegNo(out[0]), 0)
		fmt.Fprintf(h, "%d probe %d\n", i, errBit(lerr))
		if secretNow {
			if lerr == nil {
				violate("call %d: unclassified process read the secret %s through a fresh descriptor", i, what)
			} else {
				// The reference monitor refusing a read-up: the machine
				// fault is the denial, so count it with the gate-level ones.
				rep.Denied++
			}
		}
		if !secretNow && lerr != nil && cfg.FaultRate == 0 {
			violate("call %d: unclassified read of the unclassified %s failed without faults: %v", i, what, lerr)
		}
	}

	ran := func() (panicked any) {
		defer func() { panicked = recover() }()
		for i := 0; i < cfg.Calls; i++ {
			rep.Calls++
			pick := fzChain(seed, uint64(i), 1) % 100
			switch {
			case pick < 45:
				// Mutated arguments at a hash-chosen user gate, from the
				// unclassified process.
				name := names[fzChain(seed, uint64(i), 2)%uint64(len(names))]
				_, err := low.CallGate(name, fzArgs(seed, uint64(i))...)
				count(err)
				fmt.Fprintf(h, "%d low %s %d\n", i, name, gate.Classify(err))
			case pick < 60:
				// The same storm from the cleared process: label checks
				// must hold at every level, not just the bottom.
				name := names[fzChain(seed, uint64(i), 2)%uint64(len(names))]
				_, err := high.CallGate(name, fzArgs(seed, uint64(i))...)
				count(err)
				fmt.Fprintf(h, "%d high %s %d\n", i, name, gate.Classify(err))
			case pick < 72:
				// Cross-level probe: the low process re-derives access to
				// the canary or the scratch segment from nothing.
				if fzChain(seed, uint64(i), 4)%2 == 0 {
					rep.CanaryProbes++
					freshProbe(i, canary, true, "canary")
				} else {
					freshProbe(i, scratch, scratchLevel == mls.Secret, "scratch segment")
				}
			case pick < 80:
				// Label mutation: flip the scratch segment's level (the
				// privileged reclassify operators run), then immediately
				// re-derive access under the new label.
				if scratchLevel == mls.Unclassified {
					scratchLevel = mls.Secret
				} else {
					scratchLevel = mls.Unclassified
				}
				if err := hier.Reclassify(scratch, mls.NewLabel(scratchLevel)); err != nil {
					violate("call %d: reclassify failed: %v", i, err)
				}
				rep.LabelFlips++
				freshProbe(i, scratch, scratchLevel == mls.Secret, "scratch segment")
			case pick < 90:
				// Raw machine probes: loads, stores and calls at
				// hash-chosen segments and offsets, including negative
				// offsets and data segments.
				v := fzChain(seed, uint64(i), 5)
				seg := machine.SegNo(v % 64)
				off := int(fzChain(seed, uint64(i), 6)%4104) - 8
				switch v >> 62 {
				case 0:
					_, err := low.CPU.Load(seg, off)
					fmt.Fprintf(h, "%d load %d\n", i, errBit(err))
				case 1:
					err := low.CPU.Store(seg, off, fzChain(seed, uint64(i), 7))
					fmt.Fprintf(h, "%d store %d\n", i, errBit(err))
				default:
					_, err := low.CPU.Call(seg, int(fzChain(seed, uint64(i), 8)%96), fzArgs(seed, uint64(i)))
					fmt.Fprintf(h, "%d call %d\n", i, errBit(err))
				}
			default:
				// The hard boundary: privileged gates and out-of-range
				// entries must stay unreachable from the user ring no
				// matter what state the storm left behind.
				name := priv[fzChain(seed, uint64(i), 2)%uint64(len(priv))]
				_, err := low.CallGate(name, fzArgs(seed, uint64(i))...)
				if !machine.IsFaultClass(err, machine.FaultRing) {
					violate("call %d: privileged gate %s reachable from the user ring: %v", i, name, err)
				} else {
					rep.Denied++
				}
				n := k.Services().UserGates.Count()
				entry := n + int(fzChain(seed, uint64(i), 9)%8)
				if _, err := low.CPU.Call(core.SegHCS, entry, nil); !machine.IsFaultClass(err, machine.FaultGate) {
					violate("call %d: out-of-range gate entry %d reachable: %v", i, entry, err)
				}
				fmt.Fprintf(h, "%d ring %s\n", i, name)
			}
		}
		return nil
	}()
	if ran != nil {
		violate("kernel panicked under fuzzing: %v", ran)
	}

	// Closing invariants: the canary is still unreadable, the supervisor
	// never malfunctioned, and the kernel still serves legitimate work.
	freshProbe(cfg.Calls, canary, true, "canary")
	rep.Malfunctions = k.SystemCrashes - crashes0
	if rep.Malfunctions > 0 {
		violate("%d supervisor malfunctions during the storm", rep.Malfunctions)
	}
	if _, err := low.CallGate("hcs_$root_dir"); err != nil {
		violate("kernel stopped serving legitimate calls after the storm: %v", err)
	}
	if v, err := hier.Object(canary); err != nil || v == nil {
		violate("canary vanished from the hierarchy: %v", err)
	}

	fmt.Fprintf(h, "calls %d ok %d rejected %d denied %d busy %d failed %d flips %d violations %d\n",
		rep.Calls, rep.OK, rep.Rejected, rep.Denied, rep.Busy, rep.Failed, rep.LabelFlips, len(rep.Violations))
	rep.Digest = fmt.Sprintf("%x", h.Sum(nil))
	return rep, nil
}
