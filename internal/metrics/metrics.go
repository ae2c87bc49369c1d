// Package metrics is the kernel's unified measurement plane: one typed
// registry of counters, gauges, and fixed-bucket histograms that every
// instrumented subsystem publishes into, replacing the four ad-hoc stats
// surfaces that grew one accessor at a time (Kernel.PerfCounters,
// Kernel.GateStats, mem.TransferStats, and the netattach/workload
// counters). Schroeder's engineering programme justified every removal
// and simplification with measured consequences; a uniform way to observe
// the kernel is what makes that auditing activity repeatable.
//
// Each event is counted once. Where a subsystem's report has a counter
// twin here (the gate, fs, blockstore, netattach and pagectl Stats,
// fleet's migration count), the counter is the only tally and the report
// reads it back, so while a registry is disabled those figures read
// zero, and on a kernel restored from a checkpoint they continue from
// its totals. A processor's associative-memory hits, misses and
// invalidations are counted only here (machine.assoc_*).
//
// Every subsystem is bound to its registry once, by its constructor. A
// subsystem built with a nil registry (a standalone test or experiment
// object) still counts: Counter on a nil *Registry hands out a counter
// that belongs to no registry, so no subsystem builds a private one.
//
// Instruments are pre-resolved handles over plain integers: like the
// kernel that owns it, a registry has one driver at a time (DESIGN.md,
// "One driver per kernel"). Recording charges no virtual cycles —
// observation must not perturb the virtual-time results it reports (the
// gate spine set that precedent with its zero-vcycle gatekeeper budget).
//
// Determinism: a deterministic workload yields the same aggregate on
// every run, and Snapshot orders instruments by name, so the JSON export
// of the same aggregate is byte-identical across runs.
package metrics

import (
	"fmt"
	"slices"
)

// Registry holds the instruments of one system. The zero value is not
// usable; call New.
type Registry struct {
	// enabled gates every recording; instruments hold a pointer to it so
	// a disabled registry drops recordings at the cost of one load.
	// Benchmarks measure the metrics-off floor this way.
	enabled bool
	// now, when set, stamps snapshots with the current virtual cycle.
	now func() int64

	insts map[string]instrument
}

// instrument is the common face of Counter, Gauge, and Histogram.
type instrument interface {
	instName() string
}

// New returns an empty, enabled registry.
func New() *Registry {
	return &Registry{enabled: true, insts: make(map[string]instrument)}
}

// SetNow installs the virtual-clock reading used to stamp snapshots; nil
// clears it (snapshots stamp zero).
func (r *Registry) SetNow(fn func() int64) { r.now = fn }

// SetEnabled turns recording on or off. Handles stay valid; a disabled
// registry drops every Add/Set/Observe.
func (r *Registry) SetEnabled(on bool) { r.enabled = on }

// Counter is a monotonically increasing event count. Handles are cheap
// to hold.
type Counter struct {
	name string
	on   *bool
	v    int64
}

func (c *Counter) instName() string { return c.name }

// Add increments the counter by d (no-op when the registry is disabled).
func (c *Counter) Add(d int64) {
	if *c.on {
		c.v += d
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a level that can move both ways (current connections, pages
// resident, ...).
type Gauge struct {
	name string
	on   *bool
	v    int64
}

func (g *Gauge) instName() string { return g.name }

// Set stores the level.
func (g *Gauge) Set(v int64) {
	if *g.on {
		g.v = v
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Histogram is a fixed-bucket distribution. Bounds are ascending
// inclusive upper bounds; observations above the last bound land in an
// implicit overflow bucket.
type Histogram struct {
	name   string
	on     *bool
	bounds []int64
	counts []int64 // len(bounds)+1; last is overflow
	sum    int64
	count  int64
}

func (h *Histogram) instName() string { return h.name }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if !*h.on {
		return
	}
	// Linear scan: bucket lists are short (a dozen bounds) and the scan
	// avoids sort.Search's function-call overhead on the hot path.
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx]++
	h.sum += v
	h.count++
}

// always is the enabled flag of counters that belong to no registry.
var always = true

// Counter returns the named counter, creating it on first use. The same
// name always returns the same handle; registering a name that already
// names a different instrument kind panics (a malformed instrument table
// is a programming error, like a malformed gate table). On a nil
// registry it returns a new counter that belongs to no registry: it
// counts, and nothing but its holder reads it.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{name: name, on: &always}
	}
	in, ok := r.insts[name]
	if !ok {
		in = &Counter{name: name, on: &r.enabled}
		r.insts[name] = in
	}
	c, ok := in.(*Counter)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %T, not a counter", name, in))
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	in, ok := r.insts[name]
	if !ok {
		in = &Gauge{name: name, on: &r.enabled}
		r.insts[name] = in
	}
	g, ok := in.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %T, not a gauge", name, in))
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket bounds on first use. Later calls must pass the same
// bounds (or nil to accept whatever was registered).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	in, ok := r.insts[name]
	if !ok {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("metrics: histogram %q needs bounds on first registration", name))
		}
		in = &Histogram{
			name:   name,
			on:     &r.enabled,
			bounds: append([]int64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		r.insts[name] = in
	}
	h, ok := in.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %T, not a histogram", name, in))
	}
	if bounds != nil && !slices.Equal(h.bounds, bounds) {
		panic(fmt.Sprintf("metrics: histogram %q re-registered with bounds %v, registered with %v", name, bounds, h.bounds))
	}
	return h
}
