package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/machine"
)

// callKind names one public call the benchmark times when tracing.
type callKind int

const (
	kSend callKind = iota
	kRecv
	kFlush
	kAttach
	kClose
	kMigrate
	kOpen
	kRead
	kCloseSeg
	kList
	kCreate
	kWrite
	kDelete
	kSetACL
	kDispatch
	kTouchHit
	kTouchFault
	kCheckpoint
	kBlockRead
	kBlockWrite
	kBlockBatchRead
	kBlockBatchWrite
	kBlockFree
	kBlockSync
	kBlockCheckpoint
	numKinds
)

// kindInfo places each call in its layer.
var kindInfo = [numKinds]struct{ layer, call string }{
	kSend:            {"netattach", "Conn.Send"},
	kRecv:            {"netattach", "Conn.TryRecv"},
	kFlush:           {"netattach", "Frontend.Flush"},
	kAttach:          {"netattach", "Fleet.Attach"},
	kClose:           {"netattach", "Session.Close"},
	kMigrate:         {"fleet", "Session.Migrate"},
	kOpen:            {"userspace", "Session.Open"},
	kRead:            {"machine", "Segment.ReadWord"},
	kCloseSeg:        {"userspace", "Segment.Close"},
	kList:            {"userspace", "Session.List"},
	kCreate:          {"userspace", "Session.CreateSegment"},
	kWrite:           {"machine", "Segment.WriteWord"},
	kDelete:          {"gate", "hcs_$delete_entry"},
	kSetACL:          {"userspace", "Session.SetACL"},
	kDispatch:        {"sched", "Scheduler.Run"},
	kTouchHit:        {"pagectl", "touch (hit)"},
	kTouchFault:      {"pagectl", "touch (fault)"},
	kCheckpoint:      {"core", "System.Checkpoint"},
	kBlockRead:       {"blockstore", "ReadBlock"},
	kBlockWrite:      {"blockstore", "WriteBlock"},
	kBlockBatchRead:  {"blockstore", "ReadBlocks"},
	kBlockBatchWrite: {"blockstore", "WriteBlocks"},
	kBlockFree:       {"blockstore", "FreeBlock"},
	kBlockSync:       {"blockstore", "Sync"},
	kBlockCheckpoint: {"blockstore", "Checkpoint"},
}

// tracer times the benchmark's own calls into the system. A nil tracer is
// off: begin and end then cost one nil check, so untraced repetitions run
// the same code.
type tracer struct {
	host [numKinds][]int64
	vc   [numKinds]int64
}

func newTracer() *tracer { return &tracer{} }

// reset drops everything recorded so far.
func (tr *tracer) reset() {
	if tr == nil {
		return
	}
	*tr = tracer{}
}

// span is an open call: its host start and the virtual clock at entry.
type span struct {
	t  time.Time
	vc int64
}

func (tr *tracer) begin(clk *machine.Clock) span {
	if tr == nil {
		return span{}
	}
	s := span{t: time.Now()}
	if clk != nil {
		s.vc = clk.Now()
	}
	return s
}

func (tr *tracer) end(k callKind, clk *machine.Clock, s span) {
	if tr == nil {
		return
	}
	tr.host[k] = append(tr.host[k], int64(time.Since(s.t)))
	if clk != nil {
		tr.vc[k] += clk.Now() - s.vc
	}
}

// elapsed records a call whose host duration the caller measured.
func (tr *tracer) elapsed(k callKind, d time.Duration, vc int64) {
	if tr == nil {
		return
	}
	tr.host[k] = append(tr.host[k], int64(d))
	tr.vc[k] += vc
}

func (tr *tracer) count(k callKind) int { return len(tr.host[k]) }

// p50us is the median host time of kind k in microseconds.
func (tr *tracer) p50us(k callKind) float64 {
	v, _ := percentile(sortedCopy(tr.host[k]), 0.50)
	return float64(v) / 1e3
}

func (tr *tracer) total(k callKind) int64 {
	var t int64
	for _, d := range tr.host[k] {
		t += d
	}
	return t
}

// layerMetric is one reported metric with its base: the count it is
// taken over.
type layerMetric struct {
	name  string
	unit  string
	value float64
	base  string
}

// layerRow is one call's line in the per-layer table.
type layerRow struct {
	Layer   string  `json:"layer"`
	Call    string  `json:"call"`
	Calls   int     `json:"calls"`
	HostNs  int64   `json:"host_ns"`
	VCycles int64   `json:"vcycles"`
	P50Ns   float64 `json:"p50_ns"`
}

// layerTable is a traced repetition's host time and vcycles per call,
// side by side. Spans nest (a touch runs inside a scheduler dispatch, a
// block write inside a touch), so each row is inclusive of what it calls.
type layerTable struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Ops      int64      `json:"ops"`
	Rows     []layerRow `json:"rows"`
}

func (t *layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "per-layer host time and vcycles over %d ops (inclusive of nested calls):\n", t.Ops)
	fmt.Fprintf(w, "  %-11s %-22s %9s %12s %11s %12s %11s\n",
		"layer", "call", "calls", "host ns/op", "p50 ns", "vcycles/op", "vc/call")
	for _, r := range t.Rows {
		vcPerCall := 0.0
		if r.Calls > 0 {
			vcPerCall = float64(r.VCycles) / float64(r.Calls)
		}
		fmt.Fprintf(w, "  %-11s %-22s %9d %12.1f %11.0f %12.2f %11.1f\n", r.Layer, r.Call, r.Calls,
			float64(r.HostNs)/float64(t.Ops), r.P50Ns, float64(r.VCycles)/float64(t.Ops), vcPerCall)
	}
}

func writeLayers(path string, t *layerTable) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing per-layer table: %w", err)
	}
	return nil
}

func readLayers(path string) (*layerTable, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t layerTable
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if t.Ops <= 0 {
		return nil, fmt.Errorf("%s: no ops recorded", path)
	}
	return &t, nil
}

// Dead bands for compare: host time moves by more than hostBand, or
// vcycles by more than vcBand (they repeat exactly, so any real change
// is a change), before a direction counts.
const (
	hostBand = 0.05
	vcBand   = 1e-9
)

// layerDelta is one layer's relative change between two tables.
type layerDelta struct {
	layer        string
	host, vc     float64
	opposite     bool
	hostA, hostB float64
	vcA, vcB     float64
}

func direction(rel, band float64) int {
	switch {
	case rel > band:
		return 1
	case rel < -band:
		return -1
	}
	return 0
}

func relChange(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / a
}

// compareTables sums each layer's per-op host time and vcycles in both
// tables and flags layers where the two clocks move in opposite
// directions: a virtual-time win that is a wall-clock loss, or the
// reverse.
func compareTables(a, b *layerTable) []layerDelta {
	type acc struct{ host, vc float64 }
	sum := func(t *layerTable) map[string]acc {
		m := make(map[string]acc)
		for _, r := range t.Rows {
			x := m[r.Layer]
			x.host += float64(r.HostNs) / float64(t.Ops)
			x.vc += float64(r.VCycles) / float64(t.Ops)
			m[r.Layer] = x
		}
		return m
	}
	ma, mb := sum(a), sum(b)
	layers := make(map[string]bool)
	for l := range ma {
		layers[l] = true
	}
	for l := range mb {
		layers[l] = true
	}
	var out []layerDelta
	for _, l := range sortedKeys(layers) {
		d := layerDelta{layer: l, hostA: ma[l].host, hostB: mb[l].host, vcA: ma[l].vc, vcB: mb[l].vc}
		d.host = relChange(d.hostA, d.hostB)
		d.vc = relChange(d.vcA, d.vcB)
		hostDir, vcDir := direction(d.host, hostBand), direction(d.vc, vcBand)
		d.opposite = hostDir != 0 && vcDir != 0 && hostDir != vcDir
		out = append(out, d)
	}
	return out
}

func compareFiles(pa, pb string, stdout, stderr io.Writer) int {
	a, err := readLayers(pa)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	b, err := readLayers(pb)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if a.Workload != b.Workload {
		fmt.Fprintf(stderr, "perfbench: tables are for different workloads (%s, %s)\n", a.Workload, b.Workload)
		return 2
	}
	fmt.Fprintf(stdout, "compare %s: %s -> %s (per op; host band ±%.0f%%)\n", a.Workload, pa, pb, hostBand*100)
	fmt.Fprintf(stdout, "  %-11s %12s %12s %8s %12s %12s %8s\n", "layer", "host ns A", "host ns B", "Δhost", "vcycles A", "vcycles B", "Δvc")
	flagged := 0
	for _, d := range compareTables(a, b) {
		mark := ""
		if d.opposite {
			mark = "  ** host and vcycles move in opposite directions"
			flagged++
		}
		fmt.Fprintf(stdout, "  %-11s %12.1f %12.1f %+7.1f%% %12.2f %12.2f %+7.1f%%%s\n",
			d.layer, d.hostA, d.hostB, 100*d.host, d.vcA, d.vcB, 100*d.vc, mark)
	}
	fmt.Fprintf(stdout, "%d layer(s) flagged\n", flagged)
	return 0
}

// perLayerInput is what one traced repetition hands to perLayer.
type perLayerInput struct {
	delta, end map[string]int64
	tr         *tracer
	o          *outcome
	phaseS     float64
	gcCPU      float64
	totalCPU   float64
	gcCycles   float64
}

// opP50us is the median host time in microseconds of ops of one kind.
func opP50us(o *outcome, kind int) float64 {
	v, _ := percentile(sortedCopy(o.opHost[kind]), 0.50)
	return float64(v) / 1e3
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perLayer derives every per-layer metric of one traced repetition, each
// with its base, plus the repetition's per-layer table.
func perLayer(in perLayerInput) ([]layerMetric, *layerTable) {
	d, tr, o := in.delta, in.tr, in.o
	ops := o.attempted
	kops := float64(ops) / 1000
	perOp := func(name, key string) layerMetric {
		return layerMetric{name, "count", ratio(d[key], ops), fmt.Sprintf("%d over %d ops", d[key], ops)}
	}
	perKop := func(name, key string) layerMetric {
		return layerMetric{name, "count", float64(d[key]) / kops, fmt.Sprintf("%d over %d ops", d[key], ops)}
	}
	hitRatio := func(name, hits, misses string) layerMetric {
		h, m := d[hits], d[misses]
		return layerMetric{name, "ratio", ratio(h, h+m), fmt.Sprintf("%d of %d lookups", h, h+m)}
	}
	callUs := func(name string, k callKind) layerMetric {
		return layerMetric{name, "us", tr.p50us(k), fmt.Sprintf("p50 of %d calls", tr.count(k))}
	}
	callNs := func(name string, k callKind) layerMetric {
		return layerMetric{name, "ns", tr.p50us(k) * 1e3, fmt.Sprintf("p50 of %d calls", tr.count(k))}
	}

	host := sortedCopy(o.host)
	p50, _ := percentile(host, 0.50)
	p99, ok99 := percentile(host, 0.99)
	p99base := fmt.Sprintf("n=%d", len(host))
	if !ok99 {
		p99, p99base = 0, fmt.Sprintf("n=%d: too few samples beyond p99", len(host))
	}
	bgShare := 0.0
	if o.busyNs > 0 {
		bgShare = 1 - float64(o.busyNs)/(in.phaseS*1e9)
	}
	gcFrac := 0.0
	if in.totalCPU > 0 {
		gcFrac = in.gcCPU / in.totalCPU
	}
	openP99, ok := percentile(sortedCopy(tr.host[kOpen]), 0.99)
	openP99base := fmt.Sprintf("p99 of %d calls", tr.count(kOpen))
	if !ok {
		openP99, openP99base = 0, fmt.Sprintf("%d calls: too few beyond p99", tr.count(kOpen))
	}
	flushRound := 0.0
	if o.rounds > 0 {
		flushRound = float64(tr.total(kFlush)) / 1e3 / float64(o.rounds)
	}

	ms := []layerMetric{
		{"host.op_us_p50", "us", float64(p50) / 1e3, fmt.Sprintf("n=%d", len(host))},
		{"host.op_us_p99", "us", float64(p99) / 1e3, p99base},
		{"go.gc_cpu_frac", "ratio", gcFrac, fmt.Sprintf("%.3fs of %.3fs CPU", in.gcCPU, in.totalCPU)},
		{"go.gc_cycles_per_kop", "count", in.gcCycles / kops, fmt.Sprintf("%.0f cycles over %d ops", in.gcCycles, ops)},
		// netattach
		callNs("netattach.send_ns", kSend),
		callNs("netattach.recv_ns", kRecv),
		{"netattach.flush_us_per_round", "us", flushRound, fmt.Sprintf("%d flushes over %d rounds", tr.count(kFlush), o.rounds)},
		callUs("netattach.attach_us", kAttach),
		callUs("netattach.close_us", kClose),
		{"netattach.attach_p99_vc", "vcycles", float64(in.end["net.attach_p99_vc"]), "Frontend.Stats over all accepts"},
		// fleet
		callUs("fleet.migrate_us", kMigrate),
		perKop("fleet.migrations_per_kop", "fleet.migrations"),
		// core / auth, sched
		perKop("core.procs_created_per_kop", "core.processes"),
		perOp("sched.dispatches_per_op", "sched.dispatches"),
		// gate / machine
		perOp("gate.calls_per_op", "gate.calls"),
		{"gate.vcycles_per_op", "vcycles", ratio(d["gate.vcycles"], ops), fmt.Sprintf("%d over %d ops", d["gate.vcycles"], ops)},
		hitRatio("machine.assoc_hit_ratio", "machine.assoc_hits", "machine.assoc_misses"),
		// userspace / KST
		callUs("tree.open_us_p50", kOpen),
		{"tree.open_us_p99", "us", float64(openP99) / 1e3, openP99base},
		callUs("tree.list_us_p50", kList),
		{"tree.create_delete_us_p50", "us", opP50us(o, treeCreate), fmt.Sprintf("p50 of %d ops", len(o.opHost[treeCreate]))},
		{"tree.revoke_us_p50", "us", opP50us(o, treeRevoke), fmt.Sprintf("p50 of %d ops", len(o.opHost[treeRevoke]))},
		perOp("kst.initiate_dir_per_op", "gate.hcs_$initiate_dir.calls"),
		// fs
		hitRatio("fs.acl_cache_hit_ratio", "fs.acl_cache.hits", "fs.acl_cache.misses"),
		perKop("fs.acl_invalidations_per_kop", "fs.acl_cache.invalidations"),
		{"fs.path_cache_lookups_per_op", "count", ratio(d["fs.path_cache.hits"]+d["fs.path_cache.misses"], ops),
			fmt.Sprintf("%d over %d ops", d["fs.path_cache.hits"]+d["fs.path_cache.misses"], ops)},
		// pagectl
		perOp("pagectl.faults_per_op", "pagectl.faults"),
		{"pagectl.wait_vc_per_fault", "vcycles", ratio(d["pagectl.wait_cycles"], d["pagectl.faults"]),
			fmt.Sprintf("%d vcycles over %d faults", d["pagectl.wait_cycles"], d["pagectl.faults"])},
		callUs("pagectl.fault_touch_us_p50", kTouchFault),
		callUs("pagectl.hit_touch_us_p50", kTouchHit),
		perOp("pagectl.kernel_evictions_per_op", "pagectl.kernel_evictions"),
		{"pagectl.bg_share", "ratio", bgShare, fmt.Sprintf("1 - %.3fs of timed touches / %.3fs phase", float64(o.busyNs)/1e9, in.phaseS)},
		// mem
		perOp("mem.core_to_bulk_per_op", "mem.core_to_bulk"),
		perOp("mem.bulk_to_disk_per_op", "mem.bulk_to_disk"),
		perOp("mem.disk_to_core_per_op", "mem.disk_to_core"),
		perOp("mem.bulk_to_core_per_op", "mem.bulk_to_core"),
		// blockstore
		callNs("blockstore.write_ns", kBlockWrite),
		callNs("blockstore.read_ns", kBlockRead),
		callNs("blockstore.batch_write_ns", kBlockBatchWrite),
		callUs("blockstore.sync_us", kBlockSync),
		{"blockstore.dedup_ratio", "ratio", ratio(d["blockstore.dedup_hits"], d["blockstore.writes"]),
			fmt.Sprintf("%d of %d writes", d["blockstore.dedup_hits"], d["blockstore.writes"])},
		{"blockstore.bytes_per_write", "B", ratio(d["blockstore.bytes_appended"], d["blockstore.writes"]),
			fmt.Sprintf("%d bytes over %d writes", d["blockstore.bytes_appended"], d["blockstore.writes"])},
		{"core.checkpoint_ms", "ms", tr.p50us(kCheckpoint) / 1e3, fmt.Sprintf("p50 of %d checkpoints", tr.count(kCheckpoint))},
	}

	t := &layerTable{Ops: ops}
	for k := callKind(0); k < numKinds; k++ {
		if tr.count(k) == 0 {
			continue
		}
		p, _ := percentile(sortedCopy(tr.host[k]), 0.50)
		t.Rows = append(t.Rows, layerRow{
			Layer: kindInfo[k].layer, Call: kindInfo[k].call, Calls: tr.count(k),
			HostNs: tr.total(k), VCycles: tr.vc[k], P50Ns: float64(p),
		})
	}
	sort.SliceStable(t.Rows, func(i, j int) bool { return t.Rows[i].Layer < t.Rows[j].Layer })
	return ms, t
}
