package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/netattach"
)

// Small op counts keep these tests quick; the shapes are the real ones.
// Each still gives more than the 1,000 latency samples a p99 needs.
var smallOps = map[string]int{"office": 1200, "tree": 1100, "thrash": 1100}

// recordingStore is a BackingStore that records which methods were called.
type recordingStore struct{ calls map[string]int }

func (r *recordingStore) hit(name string) { r.calls[name]++ }

func (r *recordingStore) ReadBlock(mem.PageID) ([]uint64, error) { r.hit("ReadBlock"); return nil, nil }
func (r *recordingStore) WriteBlock(mem.PageID, []uint64) error  { r.hit("WriteBlock"); return nil }
func (r *recordingStore) ReadBlocks([]mem.PageID) ([][]uint64, error) {
	r.hit("ReadBlocks")
	return nil, nil
}
func (r *recordingStore) WriteBlocks([]mem.BlockWrite) error { r.hit("WriteBlocks"); return nil }
func (r *recordingStore) FreeBlock(mem.PageID) error         { r.hit("FreeBlock"); return nil }
func (r *recordingStore) BlockIDs() []mem.PageID             { r.hit("BlockIDs"); return nil }
func (r *recordingStore) Sync() error                        { r.hit("Sync"); return nil }
func (r *recordingStore) Checkpoint([]byte) error            { r.hit("Checkpoint"); return nil }
func (r *recordingStore) Manifest() ([]byte, error)          { r.hit("Manifest"); return nil, nil }
func (r *recordingStore) CheckpointBlock(mem.PageID) ([]uint64, error) {
	r.hit("CheckpointBlock")
	return nil, nil
}
func (r *recordingStore) RevertToCheckpoint() error    { r.hit("RevertToCheckpoint"); return nil }
func (r *recordingStore) Close() error                 { r.hit("Close"); return nil }
func (r *recordingStore) SetMetrics(*metrics.Registry) { r.hit("SetMetrics") }

// TestBackingForwardsEveryCall calls every method of mem.BackingStore,
// and SetMetrics, on the timing wrapper, traced and untraced, and checks
// each reached the wrapped store.
func TestBackingForwardsEveryCall(t *testing.T) {
	iface := reflect.TypeOf((*mem.BackingStore)(nil)).Elem()
	names := []string{"SetMetrics"}
	for i := 0; i < iface.NumMethod(); i++ {
		names = append(names, iface.Method(i).Name)
	}
	for _, tr := range []*tracer{nil, newTracer()} {
		inner := &recordingStore{calls: map[string]int{}}
		w := reflect.ValueOf(&timedBacking{inner: inner, tr: tr})
		for _, name := range names {
			m := w.MethodByName(name)
			if !m.IsValid() {
				t.Fatalf("wrapper lacks %s", name)
			}
			args := make([]reflect.Value, m.Type().NumIn())
			for i := range args {
				args[i] = reflect.Zero(m.Type().In(i))
			}
			m.Call(args)
			if inner.calls[name] != 1 {
				t.Errorf("traced=%v: %s reached the store %d times, want 1", tr != nil, name, inner.calls[name])
			}
		}
	}
}

// TestPercentileNeedsTail checks a percentile is reported only with at
// least minTail samples beyond it.
func TestPercentileNeedsTail(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{100, 0.50, 50, true},
		{100, 0.99, 99, false},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %d, %v; want %d, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
}

func bootSmall(t *testing.T, name string, seed int64) system {
	t.Helper()
	w, _ := workloadByName(name)
	in, err := w.prepare(seed, smallOps[name])
	if err != nil {
		t.Fatal(err)
	}
	sys, err := in.boot(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.close)
	return sys
}

// TestOracleCatchesCorruptedReplies changes what the system will answer
// behind the oracle's back and checks the run counts failures.
func TestOracleCatchesCorruptedReplies(t *testing.T) {
	t.Run("office", func(t *testing.T) {
		s := bootSmall(t, "office", 1).(*officeSys)
		// An extra request the oracle never saw shifts one slot's running
		// sum and adds an unexpected reply.
		if err := s.sessions[0].Conn().Send(netattach.OpSum, 7); err != nil {
			t.Fatal(err)
		}
		o := &outcome{}
		if err := s.run(o); err != nil {
			t.Fatal(err)
		}
		if o.failed == 0 {
			t.Fatal("oracle accepted a corrupted reply stream")
		}
	})
	t.Run("tree", func(t *testing.T) {
		s := bootSmall(t, "tree", 1).(*treeSys)
		seg := -1
		for _, op := range s.in.ops {
			if op.kind == treeRead {
				seg = op.target
				break
			}
		}
		if seg < 0 {
			t.Fatal("no read in the op sequence")
		}
		sg := s.in.segs[seg]
		h, err := s.owner.Open(sg.path, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteWord(sg.off, sg.val+1); err != nil {
			t.Fatal(err)
		}
		o := &outcome{}
		if err := s.run(o); err != nil {
			t.Fatal(err)
		}
		if o.failed == 0 {
			t.Fatal("oracle accepted a corrupted segment read")
		}
	})
	t.Run("thrash", func(t *testing.T) {
		s := bootSmall(t, "thrash", 1).(*thrashSys)
		// Flip the oracle's record of a word the timed phase reads first.
		for _, tc := range s.in.touches {
			if !tc.write {
				s.shadow[(tc.seg*thrashSegPages+tc.page)*thrashPageWords+tc.word] ^= 1
				break
			}
		}
		o := &outcome{}
		if err := s.run(o); err != nil {
			t.Fatal(err)
		}
		if o.failed == 0 {
			t.Fatal("oracle accepted a mismatched read")
		}
	})
}

// TestSameSeedSameOutcome checks that one seed gives identical op
// counts, digests and virtual metrics, traced or not, and another seed
// gives other inputs.
func TestSameSeedSameOutcome(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.prepare(7, smallOps[w.name])
			if err != nil {
				t.Fatal(err)
			}
			a, err := runRep(in, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runRep(in, true)
			if err != nil {
				t.Fatal(err)
			}
			if a.failed != 0 {
				t.Fatalf("%d failed ops: %v", a.failed, a.firstErrs)
			}
			if a.virtualKey() != b.virtualKey() {
				t.Fatalf("untraced %s\ntraced   %s", a.virtualKey(), b.virtualKey())
			}
			in2, err := w.prepare(8, smallOps[w.name])
			if err != nil {
				t.Fatal(err)
			}
			c, err := runRep(in2, false)
			if err != nil {
				t.Fatal(err)
			}
			if c.digest == a.digest {
				t.Fatal("seeds 7 and 8 gave the same digest")
			}
		})
	}
}

// TestCompareFlagsOppositeMoves checks the compare mode flags a layer
// whose host time rose while its vcycles fell, and nothing else.
func TestCompareFlagsOppositeMoves(t *testing.T) {
	a := &layerTable{Workload: "thrash", Ops: 100, Rows: []layerRow{
		{Layer: "pagectl", Call: "touch (fault)", Calls: 50, HostNs: 1000, VCycles: 500},
		{Layer: "blockstore", Call: "WriteBlock", Calls: 10, HostNs: 1000, VCycles: 0},
	}}
	b := &layerTable{Workload: "thrash", Ops: 100, Rows: []layerRow{
		{Layer: "pagectl", Call: "touch (fault)", Calls: 50, HostNs: 2000, VCycles: 400},
		{Layer: "blockstore", Call: "WriteBlock", Calls: 10, HostNs: 1010, VCycles: 0},
	}}
	flagged := map[string]bool{}
	for _, d := range compareTables(a, b) {
		flagged[d.layer] = d.opposite
	}
	if !flagged["pagectl"] || flagged["blockstore"] {
		t.Fatalf("flags = %v, want only pagectl", flagged)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program in step:
// the workloads and their reasons, and the end-to-end and per-layer
// metrics a run reports, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("file lists %d workloads, program has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d in file is %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	w, _ := workloadByName("tree")
	res, err := measure(w, smallOps["tree"], 3, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	units := func(ms []layerMetric) map[string]string {
		m := map[string]string{}
		for _, x := range ms {
			m[x.name] = x.unit
		}
		return m
	}
	e2e, layers := units(res.endToEnd()), units(res.perLayerMedians())
	if len(bench.EndToEnd) != len(e2e) {
		t.Errorf("file lists %d end-to-end metrics, a run reports %d", len(bench.EndToEnd), len(e2e))
	}
	for _, m := range bench.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: program unit %q, file unit %q", m.Name, e2e[m.Name], m.Unit)
		}
	}
	var listed []string
	for _, m := range bench.PerLayer {
		listed = append(listed, m.Name)
		if layers[m.Name] != m.Unit {
			t.Errorf("per-layer %s: program unit %q, file unit %q", m.Name, layers[m.Name], m.Unit)
		}
	}
	reported := append([]string(nil), perLayerReported...)
	sort.Strings(listed)
	sort.Strings(reported)
	if !reflect.DeepEqual(listed, reported) {
		t.Errorf("per-layer metrics in the file %v, reported %v", listed, reported)
	}
}
