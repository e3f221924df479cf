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
// Default is a process-wide registry that starts disabled; only the
// deprecated ipindex counts into it.
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
// for concurrent use. The zero value is not usable; construct with New or
// NewDisabled. A nil *Registry meters nothing.
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex // guards the maps (metric creation, not updates)
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spanMu sync.Mutex
	spans  []SpanEvent
}

// New returns an enabled registry.
func New() *Registry {
	r := NewDisabled()
	r.enabled.Store(true)
	return r
}

// NewDisabled returns a registry whose instrumentation is switched off:
// counter adds, gauge sets, histogram observations and span starts all
// short-circuit until SetEnabled(true).
func NewDisabled() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// std is the process-wide default registry, disabled until SetEnabled.
var std = NewDisabled()

// Default returns the process-wide registry the deprecated ipindex counts
// into. Nothing else does: metering is handed in.
func Default() *Registry { return std }

// SetEnabled switches the registry's instrumentation on or off. Metrics
// keep their values when disabled; they just stop updating.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// IsEnabled reports whether instrumentation against this registry records.
func (r *Registry) IsEnabled() bool { return r != nil && r.enabled.Load() }

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
		c = &Counter{on: &r.enabled}
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
		g = &Gauge{on: &r.enabled}
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
		h = newHistogram(&r.enabled, bounds)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every metric and drops recorded spans. Handles stay valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
	r.spanMu.Lock()
	r.spans = nil
	r.spanMu.Unlock()
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Add increments the counter by n. No-op when the owning registry is
// disabled or the counter is nil.
func (c *Counter) Add(n int64) {
	if c == nil || !c.on.Load() {
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
	on   *atomic.Bool
	bits atomic.Uint64
}

// Set stores v. No-op when the owning registry is disabled.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.on.Load() {
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
