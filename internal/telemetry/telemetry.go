// Package telemetry is the repo's dependency-free observability substrate:
// a metrics registry (atomic counters, float gauges, fixed-bucket
// histograms), lightweight span tracing for campaign phases, and one
// exporter for each: Prometheus text for metrics (WritePrometheus) and
// Chrome trace-event JSON for spans (WriteChromeTrace).
//
// Metering is handed in. Whatever builds a metered object — a campaign,
// a stream compile, a server, a command's CLI — hands it the registry to
// count into, and the object resolves its handles there once. A nil
// *Registry is valid and meters nothing: its Counter, Gauge and Histogram
// return nil handles, whose updates are a nil check, and StartSpan returns
// a nil span, whose End is free. So an unmetered campaign or compile runs
// the same code as a metered one, and two campaigns in one process never
// count into each other's registry. The atlas platform's ping and
// traceroute counts are the one always-on registry: Platform.Stats derives
// its credits from them, so they are accounting, not metering.
//
// There is no switch: a registry meters, and the nil registry does not.
// Default and SetEnabled remain as deprecated shims, Default returning
// the nil registry.
//
// Instrumentation must never perturb results: telemetry only observes.
// Counters incremented from parallel campaign workers reach deterministic
// totals because the set of operations is deterministic, but cache-style
// counters (hits/misses) and histogram float sums may vary with goroutine
// scheduling; nothing in the pipeline reads telemetry back.
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and recorded spans. All methods are safe
// for concurrent use. The zero value is not usable; construct with New.
// A nil *Registry meters nothing.
type Registry struct {
	mu       sync.Mutex // guards the maps (metric creation, not updates)
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spanMu sync.Mutex
	spans  []SpanEvent
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default returns the nil registry, which meters nothing.
//
// Deprecated: metering is handed in; there is no process-wide registry.
// Kept for one release because benchmark/ names it.
func Default() *Registry { return nil }

// SetEnabled does nothing; it is safe on a nil registry.
//
// Deprecated: a registry has no switch; hand in nil not to meter. Kept
// for one release because benchmark/ names it.
func (r *Registry) SetEnabled(bool) {}

// Counter returns the named counter, creating it on first use; nil on a
// nil registry. Handles should be resolved once, at construction time,
// not per operation.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (ascending; an implicit +Inf bucket is appended) on
// first use. Later calls ignore bounds and return the existing histogram.
// A nil registry returns nil.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric holding the last set value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last set value (0 for a nil or never-set gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
