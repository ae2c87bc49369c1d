package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	regmetrics "repro/internal/metrics"
	"repro/internal/pagectl"
)

// Seeds recorded for claim checks: defaultSeed is what a bare run uses,
// heldOutSeed is kept out of tuning so a claimed gain can be re-checked
// on inputs nobody optimised against.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

const (
	// minReps is the fewest repetitions a run reports a median over (per
	// kind when traced and untraced repetitions alternate).
	minReps = 3
	// maxReps bounds a run on a very fast machine.
	maxReps = 200
	// minTail is how many samples must lie beyond a percentile before it
	// is reported.
	minTail = 10
)

// spec is one benchmark workload.
type spec struct {
	name string
	why  string
	// ops is the fixed number of operations one repetition performs.
	ops int
	// prepare generates the workload's inputs from the seed. The system
	// under test sees only these inputs.
	prepare func(seed int64, ops int) (inputs, error)
}

// inputs are a workload's generated inputs.
type inputs interface {
	// boot builds a fresh system over the inputs and warms it up: every
	// cache the timed phase relies on is filled before boot returns.
	boot(tr *tracer) (system, error)
}

// system is one booted instance under test.
type system interface {
	// run performs the timed phase, recording every outcome into o.
	run(o *outcome) error
	// vclock returns the sum of the system's kernel clocks.
	vclock() int64
	// counters returns cumulative counts read from the kernels' metrics
	// registries and public stats, summed over kernels.
	counters() map[string]int64
	// close shuts the system down and waits for its processes to end.
	close()
}

var workloads = []*spec{officeWorkload, treeWorkload, thrashWorkload}

func workloadByName(name string) (*spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// outcome accumulates what one timed phase produced.
type outcome struct {
	attempted, failed int64
	// vc holds each op's latency in virtual cycles.
	vc []int64
	// host holds each op's host latency in ns (traced repetitions only);
	// opHost splits it by op kind for workloads that mix kinds.
	host   []int64
	opHost [numTreeKinds][]int64
	// rounds counts the load generator's rounds, for workloads that
	// batch ops.
	rounds int64
	// busyNs is the host time of the timed ops themselves (traced
	// thrash); the rest of the phase is work between them.
	busyNs int64
	digest digest
	// firstErrs keeps the first few mismatches for the report.
	firstErrs []string
}

// fail records one op whose outcome disagreed with the oracle.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.firstErrs) < 5 {
		o.firstErrs = append(o.firstErrs, fmt.Sprintf(format, args...))
	}
}

// digest is FNV-1a over 64-bit words: the fold of every outcome.
type digest uint64

const fnvOffset = 14695981039346656037

func (d *digest) fold(vs ...uint64) {
	h := uint64(*d)
	if h == 0 {
		h = fnvOffset
	}
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	*d = digest(h)
}

func (d *digest) foldString(s string) {
	h := uint64(*d)
	if h == 0 {
		h = fnvOffset
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	*d = digest(h)
}

// percentile returns the nearest-rank q-quantile of sorted samples. ok is
// false when fewer than minTail samples lie beyond it, so the tail is too
// thin to report.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= minTail
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median of float samples (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// rep is one repetition: a fresh set-up and one timed phase.
type rep struct {
	traced bool

	setupS, phaseS, cpuS float64
	allocBytes           uint64
	heapLive             uint64

	attempted, failed int64
	vcycles           int64
	vcP50, vcP99      int64
	vcSamples         int
	digest            digest
	firstErrs         []string

	// layer holds the per-layer metrics and table (traced repetitions).
	layer []layerMetric
	table *layerTable
}

// opsPerS is the repetition's throughput.
func (r *rep) opsPerS() float64 { return float64(r.attempted) / r.phaseS }

// virtualKey identifies everything that must repeat exactly between
// repetitions of one seed, traced or not.
func (r *rep) virtualKey() string {
	return fmt.Sprintf("attempted=%d failed=%d vcycles=%d p50=%d p99=%d digest=%016x",
		r.attempted, r.failed, r.vcycles, r.vcP50, r.vcP99, uint64(r.digest))
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// goStats reads the runtime's GC accounting.
type goStats struct{ gcCPU, totalCPU, gcCycles float64 }

var goSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGoStats() goStats {
	s := append([]metrics.Sample(nil), goSamples...)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return goStats{gcCPU: val(0), totalCPU: val(1), gcCycles: val(2)}
}

// runRep boots a fresh system, runs the timed phase once and measures it.
func runRep(in inputs, traced bool) (*rep, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r := &rep{traced: traced}

	runtime.GC()
	t0 := time.Now()
	sys, err := in.boot(tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.setupS = time.Since(t0).Seconds()
	defer sys.close()
	if tr != nil {
		tr.reset() // spans from set-up are not part of the timed phase
	}

	// Start the phase from a collected heap so each repetition pays for
	// its own garbage only.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	var before map[string]int64
	var go0 goStats
	if traced {
		before = sys.counters()
		go0 = readGoStats()
	}
	vc0 := sys.vclock()
	o := &outcome{}
	cpu0 := cpuSeconds()
	t1 := time.Now()
	runErr := sys.run(o)
	r.phaseS = time.Since(t1).Seconds()
	r.cpuS = cpuSeconds() - cpu0
	r.vcycles = sys.vclock() - vc0
	runtime.ReadMemStats(&ms)
	r.allocBytes = ms.TotalAlloc - alloc0
	if runErr != nil {
		return nil, runErr
	}
	var after map[string]int64
	var go1 goStats
	if traced {
		go1 = readGoStats()
		after = sys.counters()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapLive = ms.HeapAlloc
	runtime.KeepAlive(sys)

	r.attempted, r.failed, r.digest, r.firstErrs = o.attempted, o.failed, o.digest, o.firstErrs
	if r.attempted == 0 {
		return nil, errors.New("timed phase attempted no ops")
	}
	vc := sortedCopy(o.vc)
	r.vcSamples = len(vc)
	var ok50, ok99 bool
	r.vcP50, ok50 = percentile(vc, 0.50)
	r.vcP99, ok99 = percentile(vc, 0.99)
	if !ok50 || !ok99 {
		return nil, fmt.Errorf("only %d latency samples: too few beyond p99 to report it", len(vc))
	}
	if traced {
		r.layer, r.table = perLayer(perLayerInput{
			delta: deltaCounters(before, after), end: after,
			tr: tr, o: o, phaseS: r.phaseS,
			gcCPU: go1.gcCPU - go0.gcCPU, totalCPU: go1.totalCPU - go0.totalCPU,
			gcCycles: go1.gcCycles - go0.gcCycles,
		})
	}
	return r, nil
}

func deltaCounters(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sumRegistries folds the counters of every registry into one map, with
// gate counters also totalled as gate.calls and gate.vcycles.
func sumRegistries(regs ...*regmetrics.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, reg := range regs {
		for _, c := range reg.Snapshot().Counters {
			out[c.Name] += c.Value
			if len(c.Name) > 5 && c.Name[:5] == "gate." {
				switch {
				case hasSuffix(c.Name, ".calls"):
					out["gate.calls"] += c.Value
				case hasSuffix(c.Name, ".vcycles"):
					out["gate.vcycles"] += c.Value
				}
			}
		}
	}
	return out
}

func hasSuffix(s, suf string) bool { return len(s) >= len(suf) && s[len(s)-len(suf):] == suf }

// kernelCounters reads one kernel's registry plus the counts it exposes
// only through public stats.
func kernelCounters(k *core.Kernel) map[string]int64 {
	svc := k.Services()
	c := sumRegistries(svc.Metrics)
	if pp, ok := svc.Pager.(*pagectl.ParallelPager); ok {
		c["pagectl.kernel_evictions"] = pp.KernelEvictions
	}
	c["core.processes"] = int64(len(k.Processes()))
	return c
}

// result is a whole run: every repetition plus what is reported from them.
type result struct {
	w      *spec
	seed   int64
	traced bool
	reps   []*rep
	// mismatch is set when repetitions disagreed on a virtual metric or
	// digest.
	mismatch string
	layers   *layerTable
}

// measure runs repetitions of the workload until seconds have elapsed
// (and at least minReps of each kind have run).
func measure(w *spec, ops int, seed int64, seconds float64, traced bool) (*result, error) {
	in, err := w.prepare(seed, ops)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	res := &result{w: w, seed: seed, traced: traced}
	start := time.Now()
	for i := 0; i < maxReps; i++ {
		r, err := runRep(in, traced && i%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		res.reps = append(res.reps, r)
		need := minReps
		if traced {
			need = 2 * minReps
		}
		if len(res.reps) >= need && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	key := res.reps[0].virtualKey()
	for i, r := range res.reps[1:] {
		if k := r.virtualKey(); k != key {
			res.mismatch = fmt.Sprintf("repetition %d (traced=%v) gave %s; repetition 0 gave %s", i+1, r.traced, k, key)
			break
		}
	}
	if traced {
		res.layers = res.tracedReps()[0].table
		res.layers.Workload, res.layers.Seed = w.name, seed
	}
	return res, nil
}

func (res *result) untracedReps() []*rep {
	var out []*rep
	for _, r := range res.reps {
		if !r.traced {
			out = append(out, r)
		}
	}
	return out
}

func (res *result) tracedReps() []*rep {
	var out []*rep
	for _, r := range res.reps {
		if r.traced {
			out = append(out, r)
		}
	}
	return out
}

func (res *result) correct() bool {
	return res.mismatch == "" && res.reps[0].failed == 0
}

func medianOf(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd is the gated metric set, from untraced repetitions.
func (res *result) endToEnd() []layerMetric {
	reps := res.untracedReps()
	r0 := reps[0]
	ops := float64(r0.attempted)
	return []layerMetric{
		{"setup_s", "s", medianOf(reps, func(r *rep) float64 { return r.setupS }),
			fmt.Sprintf("median of %d set-ups", len(reps))},
		{"ops_per_s", "ops/s", medianOf(reps, (*rep).opsPerS),
			fmt.Sprintf("median of %d phases of %d ops", len(reps), r0.attempted)},
		{"cpu_us_per_op", "us", medianOf(reps, func(r *rep) float64 { return r.cpuS * 1e6 / float64(r.attempted) }),
			"process user+sys CPU per op"},
		{"heap_live_mb", "MB", medianOf(reps, func(r *rep) float64 { return float64(r.heapLive) / (1 << 20) }),
			"live heap after a forced GC at the end of the phase"},
		{"alloc_bytes_per_op", "B", medianOf(reps, func(r *rep) float64 { return float64(r.allocBytes) / float64(r.attempted) }),
			"bytes allocated per op in the phase"},
		{"vcycles_per_op", "vcycles", float64(r0.vcycles) / ops,
			fmt.Sprintf("%d vcycles over %d ops", r0.vcycles, r0.attempted)},
		{"op_p50_vc", "vcycles", float64(r0.vcP50), fmt.Sprintf("n=%d", r0.vcSamples)},
		{"op_p99_vc", "vcycles", float64(r0.vcP99),
			fmt.Sprintf("n=%d, %d beyond", r0.vcSamples, r0.vcSamples-int(math.Ceil(0.99*float64(r0.vcSamples))))},
	}
}

// perLayerReported is the per-layer set the machine-readable line carries
// on traced runs: every count, ratio and virtual-time metric (defined on
// every workload, zero where a workload bypasses the layer) plus the host
// metrics every workload exercises. Host times of calls only some
// workloads make are printed in the per-layer report above that line.
var perLayerReported = []string{
	"host.op_us_p50", "host.op_us_p99", "bench.trace_overhead_frac",
	"go.gc_cpu_frac", "go.gc_cycles_per_kop",
	"gate.calls_per_op", "gate.vcycles_per_op", "machine.assoc_hit_ratio",
	"sched.dispatches_per_op", "core.procs_created_per_kop",
	"netattach.attach_p99_vc", "fleet.migrations_per_kop",
	"kst.initiate_dir_per_op", "fs.acl_cache_hit_ratio", "fs.acl_invalidations_per_kop",
	"fs.path_cache_lookups_per_op",
	"pagectl.faults_per_op", "pagectl.wait_vc_per_fault", "pagectl.kernel_evictions_per_op",
	"pagectl.bg_share",
	"mem.core_to_bulk_per_op", "mem.bulk_to_disk_per_op", "mem.disk_to_core_per_op", "mem.bulk_to_core_per_op",
	"blockstore.dedup_ratio", "blockstore.bytes_per_write",
}

// perLayerMedians reports every per-layer metric: medians over the traced
// repetitions (the count metrics repeat exactly, so the median is the
// value), plus the tracing overhead against the untraced repetitions.
func (res *result) perLayerMedians() []layerMetric {
	traced := res.tracedReps()
	out := append([]layerMetric(nil), traced[0].layer...)
	for i := range out {
		out[i].value = medianOf(traced, func(r *rep) float64 { return r.layer[i].value })
	}
	untracedOps := medianOf(res.untracedReps(), (*rep).opsPerS)
	tracedOps := medianOf(traced, (*rep).opsPerS)
	out = append(out, layerMetric{"bench.trace_overhead_frac", "ratio", 1 - tracedOps/untracedOps,
		fmt.Sprintf("1 - traced/untraced ops_per_s (%.0f/%.0f)", tracedOps, untracedOps)})
	return out
}

// summary is the last line of output.
func (res *result) summary() summaryLine {
	r0 := res.reps[0]
	s := summaryLine{
		Correct:   res.correct(),
		Attempted: r0.attempted,
		Failed:    r0.failed,
		Metrics:   make(map[string]metricValue),
	}
	ms := res.endToEnd()
	if res.traced {
		ms = nil
		for _, m := range res.perLayerMedians() {
			if slices.Contains(perLayerReported, m.name) {
				ms = append(ms, m)
			}
		}
	}
	for _, m := range ms {
		s.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return s
}

// print writes the human-readable report.
func (res *result) print(w io.Writer) {
	r0 := res.reps[0]
	nt := len(res.tracedReps())
	fmt.Fprintf(w, "perfbench %s  seed %d  repetitions %d (traced %d)\n", res.w.name, res.seed, len(res.reps), nt)
	fmt.Fprintf(w, "  why: %s\n", res.w.why)
	for _, m := range res.endToEnd() {
		fmt.Fprintf(w, "  %-22s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.base)
	}
	fmt.Fprint(w, "  by repetition (ops/s, setup s):")
	for _, r := range res.reps {
		mark := ""
		if r.traced {
			mark = "t"
		}
		fmt.Fprintf(w, " %.0f%s/%.3f", r.opsPerS(), mark, r.setupS)
	}
	fmt.Fprintln(w)
	frac := float64(r0.failed) / float64(r0.attempted)
	fmt.Fprintf(w, "  %-22s %14.6g %-8s %d failed of %d attempted\n", "fail_frac", frac, "ratio", r0.failed, r0.attempted)
	fmt.Fprintf(w, "  %-22s %016x\n", "digest", uint64(r0.digest))
	for _, e := range r0.firstErrs {
		fmt.Fprintf(w, "  mismatch: %s\n", e)
	}
	if res.mismatch != "" {
		fmt.Fprintf(w, "  NOT REPEATABLE: %s\n", res.mismatch)
	}
	if !res.traced {
		return
	}
	fmt.Fprintln(w, "per-layer metrics (traced repetitions; medians):")
	for _, m := range res.perLayerMedians() {
		fmt.Fprintf(w, "  %-32s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.base)
	}
	res.layers.print(w)
}
