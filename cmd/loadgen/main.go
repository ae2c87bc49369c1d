// Command loadgen replays scripted login→work→logout traffic at N
// concurrent connections against a booted system, and reports
// throughput, attach-latency percentiles, peak buffer occupancy, and
// exact loss counts. The script generator is seeded, so the same seed
// always yields the same transcript digest — run it twice to check.
//
// Usage:
//
//	loadgen -n 1000               # 1000 connections against the S6 kernel
//	loadgen -n 100 -seed 42       # different traffic, still deterministic
//	loadgen -n 32 -compare        # same storm on the legacy path vs S5+
//	loadgen -n 32 -fault-rate 0.01 -fault-seed 7   # storm under injected faults
//	loadgen -n 32 -metrics        # live metric deltas + final registry snapshot
//	loadgen -n 64 -kernels 4      # shard the sessions across a 4-kernel fleet
//	loadgen -n 64 -kernels 4 -migrate-every 1      # and live-migrate every burst
//	loadgen -n 24 -scenario office                 # mixed persona population
//	loadgen -n 24 -scenario office -mix editor=3,compiler=2,daemon=1,tenants=2
//	loadgen -n 24 -scenario office -arrival open:3 # seeded open-loop arrivals
//
// With -scenario the flat storm is replaced by a composed persona
// population (see internal/workload): -mix weights the personas
// (editor, compiler, daemon, tenants), -arrival picks the arrival
// model — "closed" (fixed population with think time, the default) or
// "open:GAP" (sessions enter the run at seeded staggered rounds with
// the given mean gap). Persona definitions fix each session's shape,
// so -steps, -burst and -users do not combine with -scenario. All
// persona decisions are pure seeded hashes: the transcript digest is
// byte-identical across runs and at any -kernels count.
//
// With -compare the same scripts are replayed against the pre-S5 legacy
// per-device drivers (fixed circular buffers, silent overwrites counted
// by the kernel) and against the consolidated attachment path (infinite
// VM-backed buffers): the legacy run loses traffic, the S5+ run loses
// none.
//
// With -fault-rate > 0 the kernel is booted with a deterministic fault
// plan (see internal/faults): backing-store errors, connection resets
// and stalls land per the seeded plan, the recovery paths absorb them,
// and sessions that still die are counted in the report's failed column
// instead of aborting the run.
//
// With -metrics the kernel's unified metrics registry is sampled every
// -metrics-every virtual cycles; each sample prints one live delta line
// and the full snapshot is printed after the run.
//
// With -kernels > 1 the same scripts replay against a fleet of
// independent kernels behind a consistent-hash session router (see
// internal/fleet); -migrate-every K live-migrates every session to the
// next kernel after every K bursts. The per-session transcript digest
// is byte-identical at any kernel count and migration cadence.
//
// With -store PATH the kernel runs over the durable content-addressed
// blockstore journaled at PATH instead of the volatile default:
//
//	loadgen -n 32 -store /tmp/s.journal                    # durable page-outs
//	loadgen -n 32 -store /tmp/s.journal -checkpoint-every 8  # checkpoint per window
//	loadgen -n 32 -store /tmp/s.journal -restore             # resume the last checkpoint
//
// -checkpoint-every K replays the scripts in windows of K steps and
// checkpoints after each window, stashing the transcript in the
// manifest. -restore skips the boot, rebuilds the kernel from the
// store's last checkpoint (kill the process mid-run to exercise it),
// and replays only the steps the checkpoint had not covered; the final
// transcript digest equals an uninterrupted run's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/blockstore"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/multics"
)

// options is the parsed flag set, separated from flag.Parse so the
// validation below is testable without forking a process.
type options struct {
	n, steps, burst, users, stage int
	faultRate                     float64
	// faultSeedSet records whether -fault-seed appeared on the command
	// line at all (its value is meaningful only with -fault-rate > 0).
	faultSeedSet bool
	// scenario/mix/arrival select the persona path; shapeSet records
	// whether any of -steps/-burst/-users appeared explicitly (personas
	// fix the traffic shape, so the two are contradictory).
	scenario, mix, arrival string
	shapeSet               bool
	metricsEvery           int64
	// kernels/migrateEvery select the fleet path; compare/metrics are
	// single-kernel reporting modes and conflict with it.
	kernels      int
	migrateEvery int
	compare      bool
	metrics      bool
	// store/ckptEvery/restore select the durable-backing path; the fleet
	// and the legacy comparison are volatile by construction.
	store     string
	ckptEvery int
	restore   bool
}

// validate rejects contradictory or out-of-range flag combinations
// through the shared cliutil rule table. Contradictory flags are a
// usage error, not a workload: main turns the first error into exit
// code 2 rather than letting the engine translate it into a
// half-configured run.
func validate(o options) error {
	if err := cliutil.FirstError(
		cliutil.AtLeast("n", o.n, 1, "one connection"),
		cliutil.AtLeast("steps", o.steps, 1, "one request per session"),
		cliutil.NonNegative("burst", o.burst),
		cliutil.NonNegative("users", o.users),
		cliutil.Probability("fault-rate", o.faultRate),
		cliutil.Rule{Bad: o.faultSeedSet && o.faultRate == 0,
			Msg: "-fault-seed without -fault-rate > 0: the seed selects a fault plan, but no faults were requested"},
		cliutil.InRange("stage", o.stage, int(core.S0Baseline), int(core.S6Restructured)),
		cliutil.Rule{Bad: o.metricsEvery < 1,
			Msg: fmt.Sprintf("-metrics-every %d: need a positive sampling period", o.metricsEvery)},
		cliutil.AtLeast("kernels", o.kernels, 1, "one kernel"),
		cliutil.NonNegative("migrate-every", o.migrateEvery),
		cliutil.Rule{Bad: o.migrateEvery > 0 && o.kernels <= 1,
			Msg: "-migrate-every without -kernels > 1: migration needs a fleet to move sessions between"},
		cliutil.Rule{Bad: o.kernels > 1 && o.compare,
			Msg: fmt.Sprintf("-compare with -kernels %d: the legacy comparison is single-kernel", o.kernels)},
		cliutil.Rule{Bad: o.kernels > 1 && o.metrics,
			Msg: fmt.Sprintf("-metrics with -kernels %d: live sampling is single-kernel; fleet counters print in the report", o.kernels)},
		cliutil.NonNegative("checkpoint-every", o.ckptEvery),
		cliutil.Rule{Bad: o.ckptEvery > 0 && o.store == "",
			Msg: "-checkpoint-every without -store: checkpoints need a durable store to land in"},
		cliutil.Rule{Bad: o.restore && o.store == "",
			Msg: "-restore without -store: there is no journal to restore from"},
		cliutil.Rule{Bad: o.store != "" && o.kernels > 1,
			Msg: fmt.Sprintf("-store with -kernels %d: the fleet members are volatile; durable backing is single-kernel", o.kernels)},
		cliutil.Rule{Bad: o.store != "" && o.compare,
			Msg: "-compare with -store: the legacy path predates the backing store"},
		cliutil.Rule{Bad: o.restore && o.faultRate > 0,
			Msg: "-fault-rate with -restore: the fault plan is not part of the checkpoint; restore boots without one"},
		cliutil.Rule{Bad: o.mix != "" && o.scenario == "",
			Msg: "-mix without -scenario: a persona mix needs a scenario to compose into"},
		cliutil.Rule{Bad: o.arrival != "" && o.arrival != "closed" && o.scenario == "",
			Msg: fmt.Sprintf("-arrival %s without -scenario: the arrival model applies to persona scenarios", o.arrival)},
		cliutil.Rule{Bad: o.scenario != "" && o.shapeSet,
			Msg: "-steps/-burst/-users with -scenario: persona definitions fix the traffic shape"},
		cliutil.Rule{Bad: o.scenario != "" && o.compare,
			Msg: "-compare with -scenario: the legacy comparison replays the flat storm only"},
	); err != nil {
		return err
	}
	if o.scenario != "" {
		if _, err := parseMix(o.mix); err != nil {
			return err
		}
		if _, _, err := parseArrival(o.arrival); err != nil {
			return err
		}
	}
	return nil
}

// personaByName maps a -mix entry name to its builder. The names are
// the personas' own Report section names.
func personaByName(name string) (workload.Persona, bool) {
	switch name {
	case "editor":
		return workload.InteractiveEditor(), true
	case "compiler":
		return workload.BatchCompiler(), true
	case "daemon":
		return workload.Daemon(), true
	case "tenants":
		return workload.TenantPair(), true
	}
	return workload.Persona{}, false
}

// defaultMix is the population used when -scenario is given without an
// explicit -mix: a small office — mostly editors, some compilers, one
// daemon slice, and an MLS tenant pair.
const defaultMix = "editor=3,compiler=2,daemon=1,tenants=2"

type mixEntry struct {
	persona workload.Persona
	weight  int
}

// parseMix parses "editor=3,compiler=2" into weighted personas. Every
// weight must be positive, so the sum is too.
func parseMix(spec string) ([]mixEntry, error) {
	if spec == "" {
		spec = defaultMix
	}
	var out []mixEntry
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("-mix %q: entry %q is not name=weight", spec, part)
		}
		p, known := personaByName(name)
		if !known {
			return nil, fmt.Errorf("-mix %q: unknown persona %q (have editor, compiler, daemon, tenants)", spec, name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-mix %q: weight %q for %s: need a positive integer", spec, val, name)
		}
		out = append(out, mixEntry{persona: p, weight: w})
	}
	return out, nil
}

// parseArrival parses "closed", "open", or "open:GAP".
func parseArrival(s string) (open bool, gap int, err error) {
	switch {
	case s == "" || s == "closed":
		return false, 0, nil
	case s == "open":
		return true, 2, nil
	case strings.HasPrefix(s, "open:"):
		gap, err = strconv.Atoi(s[len("open:"):])
		if err != nil || gap < 0 {
			return false, 0, fmt.Errorf("-arrival %q: mean gap must be a non-negative integer", s)
		}
		return true, gap, nil
	}
	return false, 0, fmt.Errorf("-arrival %q: want closed, open, or open:GAP", s)
}

// buildScenario composes the run's scenario: the classic flat storm (one
// Stormer persona), or a weighted persona mix. validate has already
// vetted the mix and arrival specs.
func buildScenario(o options, seed int64) *workload.Scenario {
	if o.scenario == "" {
		return workload.NewScenario("storm", seed).
			Mix(workload.Stormer(o.steps, o.burst, o.users), 1).
			Sessions(o.n)
	}
	sc := workload.NewScenario(o.scenario, seed).Sessions(o.n)
	mix, _ := parseMix(o.mix)
	for _, e := range mix {
		sc.Mix(e.persona, e.weight)
	}
	if open, gap, _ := parseArrival(o.arrival); open {
		sc.OpenLoop(gap)
	}
	return sc
}

func main() {
	n := flag.Int("n", 100, "concurrent connections")
	steps := flag.Int("steps", 24, "requests per session")
	burst := flag.Int("burst", 0, "requests fired back-to-back per connection (default: steps)")
	users := flag.Int("users", 0, "distinct accounts (default: min(n, 8))")
	seed := flag.Int64("seed", 75, "script generator seed")
	stage := flag.Int("stage", int(core.S6Restructured), "kernel stage (0..6)")
	compare := flag.Bool("compare", false, "also replay the same storm on the legacy S0 path")
	faultRate := flag.Float64("fault-rate", 0, "uniform fault-injection rate in [0, 1]; 0 disables the fault plane")
	faultSeed := flag.Int64("fault-seed", 1, "fault plan seed (only with -fault-rate > 0)")
	showMetrics := flag.Bool("metrics", false, "sample the metrics registry live and print the final snapshot")
	metricsEvery := flag.Int64("metrics-every", 10000, "sampling period for -metrics, in virtual cycles")
	kernels := flag.Int("kernels", 1, "fleet size: shard the sessions across this many independent kernels")
	migrateEvery := flag.Int("migrate-every", 0, "live-migrate every session after every K bursts (needs -kernels > 1)")
	storePath := flag.String("store", "", "journal file for the durable backing store; empty keeps the volatile store")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint after every K steps (needs -store)")
	restore := flag.Bool("restore", false, "resume from the last checkpoint in -store instead of booting fresh")
	scenario := flag.String("scenario", "", "persona scenario name; empty replays the classic flat storm")
	mix := flag.String("mix", "", "persona weights for -scenario, e.g. editor=3,compiler=2 (default "+defaultMix+")")
	arrival := flag.String("arrival", "", "arrival model for -scenario: closed (default) or open[:GAP]")
	flag.Parse()

	o := options{
		n: *n, steps: *steps, burst: *burst, users: *users,
		stage: *stage, faultRate: *faultRate,
		scenario: *scenario, mix: *mix, arrival: *arrival,
		metricsEvery: *metricsEvery,
		kernels:      *kernels, migrateEvery: *migrateEvery,
		compare: *compare, metrics: *showMetrics,
		store: *storePath, ckptEvery: *ckptEvery, restore: *restore,
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fault-seed":
			o.faultSeedSet = true
		case "steps", "burst", "users":
			o.shapeSet = true
		}
	})
	if err := validate(o); err != nil {
		cliutil.Exit2("loadgen", err)
	}

	sc := buildScenario(o, *seed)

	if o.store != "" {
		if o.faultRate > 0 {
			spec := faults.UniformSpec(*faultSeed, o.faultRate, 0)
			sc.Faults(&spec)
		}
		if err := runDurable(o, sc); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *kernels > 1 {
		// Fleet path: shard the same scripts across independent kernels.
		// Memory per member is scaled as workload.Boot scales it, since
		// routing imbalance can land most sessions on one kernel.
		frames := 4 * *n
		if frames < 4096 {
			frames = 4096
		}
		f, err := fleet.New(fleet.Config{
			Kernels: *kernels, Stage: multics.Stage(*stage), StageSet: true,
			Workers: 8, MaxConns: *n, MemFrames: frames,
			FaultRate: *faultRate, FaultSeed: *faultSeed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: fleet boot: %v\n", err)
			os.Exit(1)
		}
		rep, err := fleet.Run(f, fleet.RunConfig{Scenario: sc, MigrateEvery: *migrateEvery})
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: fleet run: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("--- fleet of %d kernels (stage S%d)\n%s", *kernels, *stage, rep.Format())
		return
	}

	if *faultRate > 0 {
		spec := faults.UniformSpec(*faultSeed, *faultRate, 0)
		sc.Faults(&spec)
	}

	sys, err := workload.Boot(multics.Stage(*stage), sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: boot: %v\n", err)
		os.Exit(1)
	}
	if *showMetrics {
		// Live reporting: every sample the sampler emits becomes one
		// delta line on stderr as the run progresses.
		live := trace.SinkFunc(func(ev trace.Event) {
			if ev.Stage == trace.StageMetrics {
				fmt.Fprintf(os.Stderr, "loadgen: [metrics @%d] %s\n", ev.At, ev.Detail)
			}
		})
		sys.Kernel.EnableMetricsSampler(*metricsEvery, live)
	}
	rep, err := workload.Run(sys, sc)
	if err != nil {
		sys.Shutdown()
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("--- stage S%d\n%s", *stage, rep.Format())
	if *showMetrics {
		svc := sys.Kernel.Services()
		if s := sys.Kernel.Sampler(); s != nil {
			s.Flush(svc.Clock.Now())
		}
		fmt.Printf("--- metrics snapshot\n%s", svc.Metrics.Snapshot().Compact().Text())
	}
	sys.Shutdown()

	if *compare {
		legacy, err := workload.RunAt(multics.StageBaseline, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: legacy run: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("--- stage S0 (legacy drivers, same scripts)\n%s", legacy.Format())
		fmt.Printf("--- storm verdict: legacy lost %d of %d; S%d lost %d of %d\n",
			legacy.Stats.InputLost+legacy.Stats.ReplyLost, legacy.Sent,
			*stage, rep.Stats.InputLost+rep.Stats.ReplyLost, rep.Sent)
	}
}

// Manifest Meta keys the durable path stashes so -restore can resume the
// run where the last checkpoint left it.
const (
	metaTranscript = "loadgen.transcript"
	metaNextStep   = "loadgen.next"
)

// runDurable is the -store path: the workload replays in windows over a
// file-journaled blockstore, checkpointing between windows when asked,
// or resuming a prior run's checkpoint with -restore.
func runDurable(o options, sc *workload.Scenario) error {
	plan, err := sc.Plan()
	if err != nil {
		return err
	}
	steps := plan.MaxSteps()
	media, err := blockstore.OpenFileMedia(o.store)
	if err != nil {
		return err
	}
	bs, rec, err := blockstore.Open(blockstore.Config{Media: media})
	if err != nil {
		media.Close()
		return err
	}
	if rec.Truncated {
		fmt.Fprintf(os.Stderr, "loadgen: store: torn tail truncated (%d bytes lost, %d records replayed)\n",
			rec.TornBytes, rec.Records)
	}

	var (
		sys   *multics.System
		tr    *workload.Transcript
		start int
	)
	if o.restore {
		// The manifest pins the stage and the memory geometry comes from
		// the same scenario a fresh boot would use; the store itself is
		// adopted by Restore, so the scenario's backing stays unset here.
		mc := workload.MemConfig(sc)
		k, res, err := core.Restore(core.Config{Mem: &mc}, bs)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		sys, err = multics.Adopt(k)
		if err != nil {
			return err
		}
		// The user registry is outside the checkpoint by design.
		if err := workload.RegisterUsers(sys, sc); err != nil {
			sys.Shutdown()
			return err
		}
		if snap, ok := res.Meta[metaTranscript]; ok {
			if tr, err = workload.RestoreTranscript(snap); err != nil {
				sys.Shutdown()
				return err
			}
		} else {
			tr = workload.NewTranscript(len(plan.Scripts))
		}
		if next, ok := res.Meta[metaNextStep]; ok {
			if start, err = strconv.Atoi(next); err != nil {
				sys.Shutdown()
				return fmt.Errorf("restore: manifest %s=%q: %w", metaNextStep, next, err)
			}
		}
		fmt.Printf("--- restored checkpoint @%d vcycles: stage S%d, %d segments, %d pages; resuming at step %d\n",
			res.VCycle, res.Stage, res.Segments, res.Pages, start)
	} else {
		sc.Backing(bs)
		var err error
		sys, err = workload.Boot(multics.Stage(o.stage), sc)
		if err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		tr = workload.NewTranscript(len(plan.Scripts))
	}

	if o.metrics {
		live := trace.SinkFunc(func(ev trace.Event) {
			if ev.Stage == trace.StageMetrics {
				fmt.Fprintf(os.Stderr, "loadgen: [metrics @%d] %s\n", ev.At, ev.Detail)
			}
		})
		sys.Kernel.EnableMetricsSampler(o.metricsEvery, live)
	}

	window := o.ckptEvery
	if window <= 0 {
		window = steps
	}
	checkpoints := 0
	for lo := start; lo < steps; lo += window {
		hi := lo + window
		if hi > steps {
			hi = steps
		}
		if err := workload.RunWindow(sys, sc, tr, lo, hi); err != nil {
			sys.Shutdown()
			return fmt.Errorf("window [%d,%d): %w", lo, hi, err)
		}
		if o.ckptEvery > 0 {
			snap, err := tr.Snapshot()
			if err != nil {
				sys.Shutdown()
				return err
			}
			rep, err := sys.Checkpoint(map[string]string{
				metaTranscript: snap,
				metaNextStep:   strconv.Itoa(hi),
			})
			if err != nil {
				sys.Shutdown()
				return fmt.Errorf("checkpoint after step %d: %w", hi, err)
			}
			checkpoints++
			fmt.Printf("--- checkpoint @%d vcycles: %d segments, %d pages flushed, manifest %dB\n",
				rep.VCycle, rep.Segments, rep.PagesFlushed, rep.ManifestBytes)
		}
	}
	if start >= steps {
		fmt.Printf("--- checkpoint already covers all %d steps; nothing to replay\n", steps)
	}

	sent, received, throttled := tr.Counts()
	fmt.Printf("--- stage S%d over durable store %s\n", o.stage, o.store)
	fmt.Printf("sent %d received %d throttled %d  checkpoints %d\n", sent, received, throttled, checkpoints)
	fmt.Printf("transcript digest %s\n", tr.Digest())
	st := bs.StoreStats()
	fmt.Printf("store: %d live blocks (%d distinct contents), %d writes (%d dedup hits), %d frees, %d syncs, %dB journaled\n",
		st.Blocks, st.ContentBlocks, st.Writes, st.DedupHits, st.Frees, st.Syncs, st.BytesAppended)
	if o.metrics {
		svc := sys.Kernel.Services()
		if s := sys.Kernel.Sampler(); s != nil {
			s.Flush(svc.Clock.Now())
		}
		fmt.Printf("--- metrics snapshot\n%s", svc.Metrics.Snapshot().Compact().Text())
	}
	sys.Shutdown()
	// Make the final state durable before handing the journal back: a
	// clean exit should leave nothing for the next open's tear to lose.
	if err := bs.Sync(); err != nil {
		return err
	}
	return bs.Close()
}
