package metrics

import (
	"bytes"
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
	if h.count != 0 {
		t.Fatalf("disabled registry recorded %d histogram observations", h.count)
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

// TestHistogramMerge checks the bucket totals a histogram reports against
// a sequentially computed distribution, including boundary values and
// overflow.
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
	counts, sum, count := h.counts, h.sum, h.count
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

// TestHistogramRejectsDifferentBounds re-registers a name with bounds of
// the same length but different values: the registry must panic rather
// than hand back the first histogram, while the same bounds or nil return
// it.
func TestHistogramRejectsDifferentBounds(t *testing.T) {
	r := New()
	h := r.Histogram("h", []int64{1, 2, 3})
	if r.Histogram("h", []int64{1, 2, 3}) != h || r.Histogram("h", nil) != h {
		t.Fatal("same bounds or nil must return the registered histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic re-registering h with bounds {10,20,30}")
		}
	}()
	r.Histogram("h", []int64{10, 20, 30})
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
