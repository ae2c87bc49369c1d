package metrics

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/trace"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a.calls")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.calls") != c {
		t.Fatalf("same name must return the same handle")
	}
	g := r.Gauge("a.level")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestDisabledRegistryDropsRecordings(t *testing.T) {
	r := New()
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{10})
	r.SetEnabled(false)
	c.Inc()
	g.Set(9)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("disabled registry recorded: counter=%d gauge=%d", c.Value(), g.Value())
	}
	if _, _, count := h.merge(); count != 0 {
		t.Fatalf("disabled registry recorded %d histogram observations", count)
	}
	r.SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("re-enabled counter = %d, want 1", c.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic registering gauge over counter name")
		}
	}()
	r.Gauge("dual")
}

// TestHistogramMerge drives observations across every stripe and checks
// the merged bucket totals against a sequentially computed distribution,
// including boundary values and overflow.
func TestHistogramMerge(t *testing.T) {
	r := New()
	bounds := []int64{10, 50, 100}
	h := r.Histogram("lat", bounds)
	want := make([]int64, len(bounds)+1)
	var wantSum, wantCount int64
	for v := int64(0); v <= 130; v++ {
		h.Observe(v)
		idx := len(bounds)
		for i, b := range bounds {
			if v <= b {
				idx = i
				break
			}
		}
		want[idx]++
		wantSum += v
		wantCount++
	}
	counts, sum, count := h.merge()
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, counts[i], want[i])
		}
	}
	if sum != wantSum || count != wantCount {
		t.Fatalf("sum/count = %d/%d, want %d/%d", sum, count, wantSum, wantCount)
	}
	// Boundary semantics: a value equal to a bound lands in that bucket.
	if counts[0] != 11 { // 0..10 inclusive
		t.Fatalf("first bucket = %d, want 11 (inclusive upper bound)", counts[0])
	}
	if counts[len(bounds)] != 30 { // 101..130 overflow
		t.Fatalf("overflow bucket = %d, want 30", counts[len(bounds)])
	}
}

// TestDeltaCorrectness records in two phases and checks that the delta of
// the two snapshots is exactly the second phase, per instrument kind.
func TestDeltaCorrectness(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{5})
	c.Add(3)
	g.Set(10)
	h.Observe(2)
	h.Observe(9)
	s1 := r.Snapshot()
	c.Add(4)
	g.Set(6)
	h.Observe(3)
	s2 := r.Snapshot()
	d := Delta(s1, s2)
	if len(d.Counters) != 1 || d.Counters[0].Value != 4 {
		t.Fatalf("counter delta = %+v, want 4", d.Counters)
	}
	if len(d.Gauges) != 1 || d.Gauges[0].Value != 6 {
		t.Fatalf("gauge in delta carries level: %+v, want 6", d.Gauges)
	}
	if len(d.Histograms) != 1 {
		t.Fatalf("histogram delta = %+v", d.Histograms)
	}
	hd := d.Histograms[0]
	if hd.Count != 1 || hd.Sum != 3 || hd.Counts[0] != 1 || hd.Counts[1] != 0 {
		t.Fatalf("histogram delta = %+v, want one observation of 3", hd)
	}
	// An instrument created after the first snapshot deltas against zero.
	r.Counter("late").Add(9)
	d2 := Delta(s2, r.Snapshot())
	var late int64
	for _, cv := range d2.Counters {
		if cv.Name == "late" {
			late = cv.Value
		}
	}
	if late != 9 {
		t.Fatalf("late counter delta = %d, want 9", late)
	}
}

// hammer partitions a fixed deterministic workload over par workers and
// returns the final aggregate export. The export must not depend on par.
func hammer(t *testing.T, par int) []byte {
	t.Helper()
	r := New()
	const ops = 8000
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hammer.ops")
			h := r.Histogram("hammer.val", []int64{100, 1000})
			for i := w; i < ops; i += par {
				c.Inc()
				// Instrument choice keys off the work item, not the
				// worker, so the aggregate is partition-invariant.
				r.Counter(fmt.Sprintf("hammer.mod%d", i%3)).Add(int64(i % 7))
				h.Observe(int64(i * 13 % 2048))
			}
		}(w)
	}
	wg.Wait()
	return r.Snapshot().JSON()
}

// TestParallelismInvariantExport checks the registry's concurrency
// contract: the same deterministic work partitioned over 1 and 8
// goroutines exports byte-identical aggregates (commutative sums, sorted
// snapshot). Run under -race this also hammers the hot path.
func TestParallelismInvariantExport(t *testing.T) {
	seq := hammer(t, 1)
	park := hammer(t, 8)
	if !bytes.Equal(seq, park) {
		t.Fatalf("aggregate export differs between parallelism 1 and 8:\n--- par1 ---\n%s\n--- par8 ---\n%s", seq, park)
	}
}

// TestConcurrentRegistration hammers get-or-create from many goroutines;
// every goroutine must observe the same handle per name. Run with -race.
func TestConcurrentRegistration(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	handles := make([]*Counter, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter(fmt.Sprintf("conc.%d", i%8)).Inc()
				r.Histogram("conc.h", []int64{1, 2, 3}).Observe(int64(i))
			}
			handles[w] = r.Counter("conc.0")
		}(w)
	}
	wg.Wait()
	for w := 1; w < 16; w++ {
		if handles[w] != handles[0] {
			t.Fatalf("worker %d got a different handle for conc.0", w)
		}
	}
	var total int64
	for i := 0; i < 8; i++ {
		total += r.Counter(fmt.Sprintf("conc.%d", i)).Value()
	}
	if total != 16*200 {
		t.Fatalf("total = %d, want %d", total, 16*200)
	}
}

func TestSnapshotStampAndFilter(t *testing.T) {
	r := New()
	now := int64(42)
	r.SetNow(func() int64 { return now })
	r.Counter("keep.a").Inc()
	r.Counter("drop.b").Inc()
	s := r.Snapshot()
	if s.At != 42 {
		t.Fatalf("snapshot stamp = %d, want 42", s.At)
	}
	f := s.Filter(func(name string) bool { return name[:4] == "keep" })
	if len(f.Counters) != 1 || f.Counters[0].Name != "keep.a" {
		t.Fatalf("filter kept %+v", f.Counters)
	}
}

func TestSamplerEmitsDeltas(t *testing.T) {
	r := New()
	var events []trace.Event
	sink := trace.SinkFunc(func(ev trace.Event) { events = append(events, ev) })
	s := NewSampler(r, sink, 100)
	c := r.Counter("tick.ops")

	s.Tick(50) // before first boundary: nothing
	if len(events) != 0 {
		t.Fatalf("premature sample: %+v", events)
	}
	c.Add(3)
	s.Tick(120)
	c.Add(2)
	s.Tick(130) // same interval: nothing new
	s.Tick(250)
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Stage != trace.StageMetrics || events[0].At != 120 {
		t.Fatalf("first sample = %+v", events[0])
	}
	if events[0].Detail != "tick.ops+3" {
		t.Fatalf("first sample detail = %q, want tick.ops+3", events[0].Detail)
	}
	if events[1].Detail != "tick.ops+2" {
		t.Fatalf("second sample detail = %q, want tick.ops+2", events[1].Detail)
	}
	s.Flush(260)
	if len(events) != 3 || events[2].Name != "flush" || events[2].Detail != "idle" {
		t.Fatalf("flush event = %+v", events[len(events)-1])
	}
	if s.Samples() != 3 {
		t.Fatalf("samples = %d, want 3", s.Samples())
	}
}

func TestTextAndJSONExport(t *testing.T) {
	r := New()
	r.Counter("a").Add(2)
	r.Gauge("b").Set(3)
	r.Histogram("c", []int64{10}).Observe(4)
	s := r.Snapshot()
	txt := s.Text()
	for _, want := range []string{"counters:", "gauges:", "histograms:", "le10:1", "inf:0"} {
		if !bytes.Contains([]byte(txt), []byte(want)) {
			t.Fatalf("text export missing %q:\n%s", want, txt)
		}
	}
	j := s.JSON()
	if !bytes.Contains(j, []byte(`"at_vcycles"`)) || !bytes.Contains(j, []byte(`"name": "a"`)) {
		t.Fatalf("json export malformed:\n%s", j)
	}
	if !bytes.Equal(j, r.Snapshot().JSON()) {
		t.Fatalf("repeated export of an unchanged registry must be byte-identical")
	}
}

// TestDeltaUnderConcurrentRecording takes snapshots while recorders are
// live and checks the Delta chain is consistent: every delta is
// non-negative for counters and histogram buckets, and the deltas sum
// to exactly the final total. Run under -race this exercises Snapshot's
// read locks against the lock-free record path.
func TestDeltaUnderConcurrentRecording(t *testing.T) {
	r := New()
	const (
		workers = 4
		ops     = 4000
	)
	// The baseline precedes every recorder, so the delta chain covers
	// every increment.
	prev := r.Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("live.ops")
			h := r.Histogram("live.val", []int64{10, 100})
			for i := w; i < ops; i += workers {
				c.Inc()
				h.Observe(int64(i % 200))
			}
		}(w)
	}

	var opsSeen, obsSeen int64
	for i := 0; i < 50; i++ {
		cur := r.Snapshot()
		d := Delta(prev, cur)
		for _, cv := range d.Counters {
			if cv.Value < 0 {
				t.Fatalf("negative counter delta %q = %d", cv.Name, cv.Value)
			}
			if cv.Name == "live.ops" {
				opsSeen += cv.Value
			}
		}
		for _, hv := range d.Histograms {
			if hv.Count < 0 || hv.Sum < 0 {
				t.Fatalf("negative histogram delta %q: count %d sum %d", hv.Name, hv.Count, hv.Sum)
			}
			for bi, n := range hv.Counts {
				if n < 0 {
					t.Fatalf("negative bucket delta %q[%d] = %d", hv.Name, bi, n)
				}
			}
			if hv.Name == "live.val" {
				obsSeen += hv.Count
			}
		}
		prev = cur
	}
	wg.Wait()

	// Tail delta: whatever landed after the last mid-flight snapshot.
	final := r.Snapshot()
	d := Delta(prev, final)
	for _, cv := range d.Counters {
		if cv.Name == "live.ops" {
			opsSeen += cv.Value
		}
	}
	for _, hv := range d.Histograms {
		if hv.Name == "live.val" {
			obsSeen += hv.Count
		}
	}
	if opsSeen != ops || obsSeen != ops {
		t.Fatalf("delta chain lost updates: ops %d obs %d, want %d each", opsSeen, obsSeen, ops)
	}
	if got := r.Counter("live.ops").Value(); got != ops {
		t.Fatalf("final counter %d, want %d", got, ops)
	}
}
