// Package telemetry is the repo's dependency-free observability substrate:
// a metrics registry (atomic counters, float gauges, fixed-bucket
// histograms), lightweight span tracing for campaign phases, and one
// exporter for each: Prometheus text for metrics (WritePrometheus) and
// Chrome trace-event JSON for spans (WriteChromeTrace).
//
// Two kinds of registries coexist:
//
//   - The global default registry (Default) is DISABLED by default: every
//     instrumentation call against it short-circuits on one atomic load,
//     so pipeline-wide instrumentation costs ~nothing unless a binary
//     opts in (the -metrics/-trace/-pprof flags call Enable). Stateless
//     packages (netsim, cbg, vpsel, streetlevel, sanitize, core,
//     experiments) instrument against it.
//
//   - Per-campaign registries (telemetry.New) are always enabled and back
//     accounting that must work unconditionally: the atlas platform's
//     ping and traceroute counts live in one, and Platform.Stats derives
//     its credits from them.
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
// NewDisabled.
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

// std is the process-wide default registry, disabled until a binary opts
// in via Enable (the telemetry CLI flags do).
var std = NewDisabled()

// Default returns the global default registry.
func Default() *Registry { return std }

// Enable switches the global default registry on.
func Enable() { std.SetEnabled(true) }

// Enabled reports whether the global default registry is on.
func Enabled() bool { return std.IsEnabled() }

// SetEnabled switches the registry's instrumentation on or off. Metrics
// keep their values when disabled; they just stop updating.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// IsEnabled reports whether instrumentation against this registry records.
func (r *Registry) IsEnabled() bool { return r != nil && r.enabled.Load() }

// Counter returns the named counter, creating it on first use. Handles
// should be resolved once (package init or construction time), not per
// operation.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{on: &r.enabled}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
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
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
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
