package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge level in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one merged histogram in a snapshot. Counts has one
// entry per bound plus a trailing overflow bucket.
type HistogramValue struct {
	Name   string  `json:"name"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Snapshot is a point-in-time view of a registry, stamped with the
// virtual cycle at which it was taken. All slices are sorted by name, so
// JSON() of equal aggregates is byte-identical.
type Snapshot struct {
	At         int64            `json:"at_vcycles"`
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot collects every instrument into a sorted, stamped view.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r.now != nil {
		s.At = r.now()
	}
	for _, in := range r.insts {
		switch v := in.(type) {
		case *Counter:
			s.Counters = append(s.Counters, CounterValue{Name: v.name, Value: v.Value()})
		case *Gauge:
			s.Gauges = append(s.Gauges, GaugeValue{Name: v.name, Value: v.Value()})
		case *Histogram:
			s.Histograms = append(s.Histograms, HistogramValue{
				Name:   v.name,
				Bounds: append([]int64(nil), v.bounds...),
				Counts: append([]int64(nil), v.counts...),
				Sum:    v.sum,
				Count:  v.count,
			})
		}
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Delta returns cur minus prev: every instrument present in cur appears
// with the difference since prev (instruments absent from prev difference
// against zero). Gauges carry their current level, not a difference —
// a level is meaningful at an instant, not over an interval.
func Delta(prev, cur Snapshot) Snapshot {
	d := Snapshot{At: cur.At}
	pc := make(map[string]int64, len(prev.Counters))
	for _, c := range prev.Counters {
		pc[c.Name] = c.Value
	}
	for _, c := range cur.Counters {
		d.Counters = append(d.Counters, CounterValue{Name: c.Name, Value: c.Value - pc[c.Name]})
	}
	d.Gauges = append(d.Gauges, cur.Gauges...)
	ph := make(map[string]HistogramValue, len(prev.Histograms))
	for _, h := range prev.Histograms {
		ph[h.Name] = h
	}
	for _, h := range cur.Histograms {
		dv := HistogramValue{
			Name:   h.Name,
			Bounds: append([]int64(nil), h.Bounds...),
			Counts: append([]int64(nil), h.Counts...),
			Sum:    h.Sum,
			Count:  h.Count,
		}
		if p, ok := ph[h.Name]; ok && len(p.Counts) == len(dv.Counts) {
			for i := range dv.Counts {
				dv.Counts[i] -= p.Counts[i]
			}
			dv.Sum -= p.Sum
			dv.Count -= p.Count
		}
		d.Histograms = append(d.Histograms, dv)
	}
	return d
}

// Compact returns a copy of s with zero-valued counters and gauges and
// empty histograms dropped — the form the sampler emits so idle
// intervals stay terse.
func (s Snapshot) Compact() Snapshot {
	c := Snapshot{At: s.At}
	for _, v := range s.Counters {
		if v.Value != 0 {
			c.Counters = append(c.Counters, v)
		}
	}
	for _, v := range s.Gauges {
		if v.Value != 0 {
			c.Gauges = append(c.Gauges, v)
		}
	}
	for _, h := range s.Histograms {
		if h.Count != 0 || h.Sum != 0 {
			c.Histograms = append(c.Histograms, h)
		}
	}
	return c
}

// Filter returns a copy of s keeping only instruments for which keep
// returns true (metricsdump -filter prints a name prefix this way).
func (s Snapshot) Filter(keep func(name string) bool) Snapshot {
	f := Snapshot{At: s.At}
	for _, v := range s.Counters {
		if keep(v.Name) {
			f.Counters = append(f.Counters, v)
		}
	}
	for _, v := range s.Gauges {
		if keep(v.Name) {
			f.Gauges = append(f.Gauges, v)
		}
	}
	for _, h := range s.Histograms {
		if keep(h.Name) {
			f.Histograms = append(f.Histograms, h)
		}
	}
	return f
}

// JSON renders the snapshot as deterministic, indented JSON.
func (s Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Snapshot contains only marshalable scalar fields.
		panic(fmt.Sprintf("metrics: snapshot marshal: %v", err))
	}
	return b
}

// Text renders the snapshot as an aligned human-readable table.
func (s Snapshot) Text() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "metrics @ vcycle %d\n", s.At)
	width := 0
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, g := range s.Gauges {
		if len(g.Name) > width {
			width = len(g.Name)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-*s %12d\n", width, c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-*s %12d\n", width, g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "  %-*s count %d sum %d %s\n", width, h.Name, h.Count, h.Sum, bucketString(h))
		}
	}
	return b.String()
}

// bucketString renders one histogram's buckets as "le10:3 le50:9 inf:1".
func bucketString(h HistogramValue) string {
	parts := make([]string, 0, len(h.Counts))
	for i, c := range h.Counts {
		if i < len(h.Bounds) {
			parts = append(parts, fmt.Sprintf("le%d:%d", h.Bounds[i], c))
		} else {
			parts = append(parts, fmt.Sprintf("inf:%d", c))
		}
	}
	return strings.Join(parts, " ")
}
